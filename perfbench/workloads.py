"""Seeded workloads: an initial graph to preload and an endless event stream.

Events are ``(kind, edge)`` pairs with kind ``"+"``, ``"-"``, ``"?"`` or
``"?e"``; queries carry ``None`` as their edge. The engine only ever
receives these events, never the seed or the generator's own state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import cycle
from typing import Callable, Iterator

from dyncut.streams import generate_stream

Edge = tuple[int, int]
Event = tuple[str, "Edge | None"]

INSERT, DELETE, QUERY_VALUE, QUERY_CUT = "+", "-", "?", "?e"


def _key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class _EdgeBag:
    """Edge set with O(1) uniform choice, insert and delete."""

    def __init__(self) -> None:
        self.items: list[Edge] = []
        self._index: dict[Edge, int] = {}

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, e: Edge) -> bool:
        return e in self._index

    def add(self, e: Edge) -> None:
        self._index[e] = len(self.items)
        self.items.append(e)

    def remove(self, e: Edge) -> None:
        i = self._index.pop(e)
        last = self.items.pop()
        if last != e:
            self.items[i] = last
            self._index[last] = i

    def choice(self, rng: random.Random) -> Edge:
        return self.items[rng.randrange(len(self.items))]


class PlantedCut:
    """Two dense clusters joined by a small, churned set of bridge edges.

    Each cluster starts as a circulant of degree about ``(floor + cap) / 2``
    over a random vertex order and is then shuffled by the churn below.
    Inside a cluster, deletions keep both endpoints' cluster degree at or
    above ``floor`` and insertions keep it at or below ``cap``. The bridge
    count stays in ``[1, max_bridges]`` with ``max_bridges < floor``, so the
    graph stays connected and its minimum cut (at most the bridge count)
    lies strictly below its minimum degree (at least ``floor``). Every
    emitted update is legal: inserts are absent edges, deletes are present.
    """

    def __init__(
        self,
        rng: random.Random,
        cluster_size: int,
        floor: int,
        cap: int,
        max_bridges: int,
    ) -> None:
        if not 1 <= max_bridges < floor < cap < cluster_size:
            raise ValueError("need 1 <= max_bridges < floor < cap < cluster_size")
        self.rng = rng
        self.n = 2 * cluster_size
        self.floor = floor
        self.cap = cap
        self.max_bridges = max_bridges
        order = list(range(self.n))
        rng.shuffle(order)
        self.clusters = (order[:cluster_size], order[cluster_size:])
        self.inner_degree = [0] * self.n
        self.inner = _EdgeBag()
        self.bridges = _EdgeBag()
        for members in self.clusters:
            for offset in range(1, (floor + cap) // 4 + 1):
                for i, u in enumerate(members):
                    self._add_inner(_key(u, members[(i + offset) % cluster_size]))
        self._delete_next = True
        for _ in range(4 * len(self.inner)):
            self._inner_step()
        for _ in range(rng.randint(1, max_bridges)):
            self._insert_bridge()

    def edges(self) -> list[Edge]:
        out = self.inner.items + self.bridges.items
        self.rng.shuffle(out)
        return out

    def updates(self) -> Iterator[Event]:
        while True:
            # a fifth of the updates churn the bridges
            if self.rng.random() < 0.2:
                yield self._bridge_step()
            else:
                yield self._inner_step()

    # -- churn -------------------------------------------------------------

    def _add_inner(self, e: Edge) -> None:
        self.inner.add(e)
        self.inner_degree[e[0]] += 1
        self.inner_degree[e[1]] += 1

    def _remove_inner(self, e: Edge) -> None:
        self.inner.remove(e)
        self.inner_degree[e[0]] -= 1
        self.inner_degree[e[1]] -= 1

    def _inner_step(self) -> Event:
        # alternate deletes and inserts so the edge count stays level; a
        # step whose preferred kind has no legal edge takes the other kind
        self._delete_next = not self._delete_next
        if not self._delete_next:
            e = self._deletable()
            if e is not None:
                self._remove_inner(e)
                return (DELETE, e)
        e = self._insertable()
        if e is None:
            e = self._deletable()
            assert e is not None, "cluster has neither slack nor surplus"
            self._remove_inner(e)
            return (DELETE, e)
        self._add_inner(e)
        return (INSERT, e)

    def _deletable(self) -> Edge | None:
        deg, floor = self.inner_degree, self.floor
        for _ in range(32):
            u, v = self.inner.choice(self.rng)
            if deg[u] > floor and deg[v] > floor:
                return (u, v)
        legal = [(u, v) for u, v in self.inner.items if deg[u] > floor and deg[v] > floor]
        return self.rng.choice(legal) if legal else None

    def _insertable(self) -> Edge | None:
        deg, cap = self.inner_degree, self.cap
        for _ in range(32):
            members = self.clusters[self.rng.randrange(2)]
            u, v = self.rng.sample(members, 2)
            e = _key(u, v)
            if deg[u] < cap and deg[v] < cap and e not in self.inner:
                return e
        legal = [
            _key(u, v)
            for members in self.clusters
            for i, u in enumerate(members)
            for v in members[i + 1 :]
            if deg[u] < cap and deg[v] < cap and _key(u, v) not in self.inner
        ]
        return self.rng.choice(legal) if legal else None

    def _insert_bridge(self) -> Event:
        while True:
            e = _key(self.rng.choice(self.clusters[0]), self.rng.choice(self.clusters[1]))
            if e not in self.bridges:
                self.bridges.add(e)
                return (INSERT, e)

    def _bridge_step(self) -> Event:
        k = len(self.bridges)
        if k < self.max_bridges and (k == 1 or self.rng.random() < 0.5):
            return self._insert_bridge()
        e = self.bridges.choice(self.rng)
        self.bridges.remove(e)
        return (DELETE, e)


def _with_queries(
    n: int, preload: list[Edge], updates: Iterator[Event], every: int, kinds: tuple[str, ...], isolated_only: bool
) -> Iterator[Event]:
    """Interleave a query after every ``every`` updates, cycling through
    ``kinds``. With ``isolated_only`` a due query waits until the graph has
    an isolated vertex, so it takes the engine's degree-0 exit."""
    degree = [0] * n
    for u, v in preload:
        degree[u] += 1
        degree[v] += 1
    isolated = degree.count(0)
    since = 0
    next_kind = cycle(kinds)
    for kind, (u, v) in updates:
        step = 1 if kind == INSERT else -1
        for x in (u, v):
            if degree[x] == 0:
                isolated -= 1
            degree[x] += step
            if degree[x] == 0:
                isolated += 1
        yield (kind, (u, v))
        since += 1
        if since >= every and (isolated or not isolated_only):
            since = 0
            yield (next(next_kind), None)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: engine size and config plus its generator."""

    name: str
    n: int
    # seed -> (edges to preload, endless event stream after the preload)
    make: Callable[[int], tuple[list[Edge], Iterator[Event]]]
    config: dict = field(default_factory=dict)


def planted(n: int, floor: int, cap: int, max_bridges: int, every: int = 10):
    def make(seed: int):
        gen = PlantedCut(random.Random(seed), n // 2, floor, cap, max_bridges)
        preload = gen.edges()
        return preload, _with_queries(n, preload, gen.updates(), every, (QUERY_VALUE, QUERY_CUT), False)

    return make


def sliding_window(n: int, chunk: int = 20_000):
    def make(seed: int):
        window = 2 * n  # dyncut.streams fills a window of 2n edges first
        first = generate_stream("sliding-window", n, window + chunk, seed).events
        preload = [ev.edge for ev in first[:window]]

        def updates() -> Iterator[Event]:
            # streams regenerates an identical prefix for a longer request,
            # so a run that outgrows one chunk continues the same stream
            events, done, size = first, window, window + chunk
            while True:
                for ev in events[done:]:
                    yield (ev.kind, ev.edge)
                done, size = size, 2 * size
                events = generate_stream("sliding-window", n, size, seed).events

        # value queries only: on this control every answer is the degree-0
        # exit, and one query kind keeps its latency a single mode. Asking
        # after every update costs microseconds against milliseconds of
        # update, and gives the query percentiles enough samples.
        return preload, _with_queries(n, preload, updates(), 1, (QUERY_VALUE,), True)

    return make


WORKLOADS = {
    w.name: w
    for w in (
        Workload("churn-contract", 256, sliding_window(256), {"mode": "direct", "center_coeff": 1.0}),
        Workload("planted-direct", 48, planted(48, 10, 14, 4), {"mode": "direct"}),
        Workload("planted-packed", 48, planted(48, 10, 14, 4), {"mode": "packed"}),
    )
}

# Small versions for the benchmark's self-test: the same generators and
# modes, sized (and for packed, given fewer copies) to run in seconds.
TINY = {
    "churn-contract": Workload("churn-contract", 32, sliding_window(32, 400), {"mode": "direct", "center_coeff": 1.0}),
    "planted-direct": Workload("planted-direct", 16, planted(16, 4, 6, 2, every=3), {"mode": "direct"}),
    "planted-packed": Workload("planted-packed", 16, planted(16, 4, 6, 2, every=3), {"mode": "packed", "copies": 2}),
}
