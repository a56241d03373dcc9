"""Randomized star contraction maintained under edge updates."""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass, field

from .graph_core import DynamicGraph, EdgeKey, WeightedGraph, edge_key
from .sampling import StableSampler

DEFAULT_CENTER_COEFF = 800.0
DEFAULT_BUDGET_COEFF = 1.0

_CLEAR = object()


@dataclass
class RelabelTask:
    """Deferred renaming of one endpoint's side across its incident edges."""

    vertex: int
    old_rep: int | None
    new_rep: int | None
    edges: list[EdgeKey]
    cursor: int = field(default=0)


class StarInstance:
    """One contraction of the input graph at a fixed degree threshold.

    The instance reads the caller's DynamicGraph and never changes it: the
    caller applies each edge update to that graph first, then passes the
    same edge to apply_update. Any number of instances can read one graph.

    A random center set is drawn once at construction: each vertex becomes
    a center with probability min(1, coeff * log2(n) / threshold). Every
    non-center tracks its center neighbors in a StableSampler and is merged
    into the sampled one; centers represent themselves. The instance keeps
    the resulting weighted quotient graph incrementally: each live edge
    stores the pair of endpoint representatives under which it is counted
    (the stored image is authoritative, weights always aggregate the stored
    images), along with the reverse preimage index.

    A representative change queues the renaming of the vertex's side on
    all its incident edges, and both modes drain that one queue: eager mode
    drains it in full within the update, lazy mode drains at most
    relabel_budget() edge-moves per update. A queued move is skipped unless
    the stored image still carries the old name, which makes replays of
    superseded tasks harmless; in eager mode the queue is empty before each
    update, so every live edge at the vertex carries its old name and no
    move is skipped.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        threshold: int,
        mode: str = "eager",
        seed: int = 0,
        center_coeff: float = DEFAULT_CENTER_COEFF,
        budget_coeff: float = DEFAULT_BUDGET_COEFF,
        centers: frozenset[int] | None = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be positive")
        if mode not in ("eager", "lazy"):
            raise ValueError(f"unknown mode {mode!r}")
        n = graph.n
        self.graph = graph
        self.n = n
        self.threshold = threshold
        self.mode = mode
        self.center_coeff = center_coeff
        self.budget_coeff = budget_coeff
        self._rng = random.Random(seed)
        self._log_n = math.log2(max(n, 2))
        self.center_probability = min(1.0, center_coeff * self._log_n / threshold)
        if centers is None:
            centers = frozenset(
                v for v in range(n) if self._rng.random() < self.center_probability
            )
        self.centers = centers
        self._samplers: dict[int, StableSampler] = {}
        # image: per live edge, the representative pair aligned with the
        # canonical endpoint order; a None side means the endpoint has no
        # representative and the edge is unmapped.
        self._image: dict[EdgeKey, tuple[int | None, int | None]] = {}
        self._preimage: dict[EdgeKey, set[EdgeKey]] = {}
        self._contracted = WeightedGraph(self.centers)
        self._unmapped = 0
        self._queue: deque[RelabelTask] = deque()

    # -- representatives ----------------------------------------------------

    def representative(self, v: int) -> int | None:
        if v in self.centers:
            return v
        sampler = self._samplers.get(v)
        return sampler.current() if sampler is not None else None

    def _sampler(self, v: int) -> StableSampler:
        s = self._samplers.get(v)
        if s is None:
            s = self._samplers[v] = StableSampler(self._rng)
        return s

    # -- contracted view -----------------------------------------------------

    def contracted_graph(self) -> WeightedGraph:
        """Live quotient graph over the center set; treat as read-only."""
        return self._contracted

    def preimage_of(self, c: EdgeKey) -> frozenset[EdgeKey]:
        return frozenset(self._preimage.get(edge_key(*c), ()))

    def is_complete(self) -> bool:
        """True when every live edge is mapped and no renames are pending."""
        return not self._queue and self._unmapped == 0

    def queue_length(self) -> int:
        return sum(len(t.edges) - t.cursor for t in self._queue)

    def has_pending(self) -> bool:
        return bool(self._queue)

    def relabel_budget(self) -> int:
        degree = max(self.graph.min_degree(), 1)
        return math.ceil(self.budget_coeff * self.n * self._log_n**4 / degree)

    # -- updates -------------------------------------------------------------

    def apply_update(self, e: EdgeKey, sign: int) -> list[tuple[EdgeKey, int]]:
        """Apply one edge update; returns net quotient weight deltas.

        sign is +1 for insertion, -1 for deletion, and the caller has
        already applied it to the graph. The returned list pairs
        quotient edge keys with the net weight change this update caused,
        including any deferred renames drained from the queue.
        """
        if sign not in (1, -1):
            raise ValueError(f"update sign must be +1 or -1, got {sign}")
        key = edge_key(*e)
        deltas: Counter[EdgeKey] = Counter()
        if sign == 1:
            pair = (self.representative(key[0]), self.representative(key[1]))
            self._retarget(key, pair, deltas)
        else:
            self._retarget(key, _CLEAR, deltas)

        u, v = key
        u_center = u in self.centers
        v_center = v in self.centers
        if u_center != v_center:
            center, other = (u, v) if u_center else (v, u)
            sampler = self._sampler(other)
            before = sampler.current()
            changed = sampler.insert(center) if sign == 1 else sampler.remove(center)
            if changed:
                snapshot = [edge_key(other, x) for x in self.graph.neighbors(other)]
                self._queue.append(
                    RelabelTask(other, before, sampler.current(), snapshot)
                )
        if self._queue:
            budget = math.inf if self.mode == "eager" else self.relabel_budget()
            self._drain(budget, deltas)
        return [(c, d) for c, d in deltas.items() if d != 0]

    def _drain(self, budget: float, deltas: Counter) -> None:
        while budget > 0 and self._queue:
            task = self._queue[0]
            while task.cursor < len(task.edges) and budget > 0:
                f = task.edges[task.cursor]
                task.cursor += 1
                budget -= 1
                old = self._image.get(f)
                if old is None:
                    continue  # edge died since the task was queued
                side = 0 if f[0] == task.vertex else 1
                if old[side] != task.old_rep:
                    continue  # image moved on already, task is stale here
                pair = (
                    (task.new_rep, old[1]) if side == 0 else (old[0], task.new_rep)
                )
                self._retarget(f, pair, deltas)
            if task.cursor == len(task.edges):
                self._queue.popleft()

    def _retarget(self, f: EdgeKey, pair, deltas: Counter) -> None:
        """Point edge f at a new representative pair, keeping the quotient
        weights, the preimage index and the unmapped counter aligned."""
        old = self._image.get(f)
        if old is not None:
            if old[0] is None or old[1] is None:
                self._unmapped -= 1
            elif old[0] != old[1]:
                c = edge_key(old[0], old[1])
                self._contracted.add_weight(c, -1)
                deltas[c] -= 1
                bucket = self._preimage[c]
                bucket.discard(f)
                if not bucket:
                    del self._preimage[c]
        if pair is _CLEAR:
            if old is not None:
                del self._image[f]
            return
        self._image[f] = pair
        if pair[0] is None or pair[1] is None:
            self._unmapped += 1
        elif pair[0] != pair[1]:
            c = edge_key(pair[0], pair[1])
            self._contracted.add_weight(c, 1)
            deltas[c] += 1
            self._preimage.setdefault(c, set()).add(f)
