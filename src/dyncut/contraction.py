"""Randomized star contraction maintained under edge updates."""

from __future__ import annotations

import math
import random

from .graph_core import DynamicGraph, EdgeKey, WeightedGraph, edge_key
from .sampling import StableSampler

DEFAULT_CENTER_COEFF = 800.0
DEFAULT_BUDGET_COEFF = 1.0

_CLEAR = object()


def relabel_budget(n: int, min_degree: int, coeff: float = DEFAULT_BUDGET_COEFF) -> int:
    """Edge moves one update may drain from a relabel queue: the paper's
    O~(n / lambda) budget, ceil(coeff * n * log2(n)^4 / max(delta, 1))."""
    return math.ceil(coeff * n * math.log2(max(n, 2)) ** 4 / max(min_degree, 1))


class StarInstance:
    """One contraction of the input graph at a fixed degree threshold.

    The instance reads the caller's DynamicGraph and never changes it: the
    caller validates each edge update and applies it to that graph first,
    then passes the edge's canonical key to apply_update, which stores that
    key object as is. Any number of instances can read one graph, and
    instances fed the same key object keep one tuple per edge between them.

    A random center set is drawn once at construction: each vertex becomes
    a center with probability min(1, coeff * log2(n) / threshold). Every
    non-center tracks its center neighbors in a StableSampler and is merged
    into the sampled one; centers represent themselves. The instance keeps
    the resulting weighted quotient graph incrementally: each live edge
    stores the pair of endpoint representatives under which it is counted
    (the stored image is authoritative, weights always aggregate the stored
    images); a quotient edge's preimage is read from the images on demand.

    Relabeling is lazy and keeps one invariant: the relabel queue holds
    live edges only, each at most once, and every live edge whose stored
    image is not its endpoints' current representatives is in it. A
    representative change adds the vertex's incident edges to the queue;
    an insertion is mapped once, under the representatives its sampler
    update left, and so is taken out; a deletion takes its edge out. Each
    update pops at most the budget of queued edges its caller hands in
    (math.inf drains the queue in full), newest first, one unit per pop,
    and points each at its endpoints' current representatives.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        threshold: int,
        seed: int = 0,
        center_coeff: float = DEFAULT_CENTER_COEFF,
        centers: frozenset[int] | None = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be positive")
        n = graph.n
        self.graph = graph
        self._rng = random.Random(seed)
        log_n = math.log2(max(n, 2))
        self.center_probability = min(1.0, center_coeff * log_n / threshold)
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
        self._contracted = WeightedGraph(self.centers)
        self._unmapped = 0
        # live edges whose stored image may be stale, as an insertion-ordered
        # set; no answer depends on the order, since a view with a queue is
        # never read
        self._queue: dict[EdgeKey, None] = {}

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
        """Live edges whose stored image is the quotient edge c, named by
        its canonical key."""
        return frozenset(f for f, pair in self._image.items() if pair in (c, c[::-1]))

    def is_complete(self) -> bool:
        """True when every live edge is mapped and no edge is queued."""
        return not self._queue and self._unmapped == 0

    def queue_length(self) -> int:
        return len(self._queue)

    def has_pending(self) -> bool:
        return bool(self._queue)

    # -- updates -------------------------------------------------------------

    def apply_update(self, key: EdgeKey, sign: int,
                     budget: float) -> list[tuple[EdgeKey, int]]:
        """Apply one edge update; returns net quotient weight deltas.

        key is the edge's canonical key (edge_key order) and sign is +1 for
        insertion or -1 for deletion; the caller has validated both and has
        already applied the update to the graph. The instance stores key
        itself, so instances fed the same key object share it. The returned
        list pairs quotient edge keys with the net weight change this update
        caused, including the queued edges drained from the queue, at most
        budget of them.
        """
        deltas: dict[EdgeKey, int] = {}
        u, v = key
        u_center = u in self.centers
        if u_center != (v in self.centers):
            center, other = (u, v) if u_center else (v, u)
            sampler = self._sampler(other)
            changed = sampler.insert(center) if sign == 1 else sampler.remove(center)
            if changed:  # other's edges may now carry a stale name
                neighbors = self.graph.neighbors(other)
                self._queue.update(dict.fromkeys(edge_key(other, x) for x in neighbors))
        if sign == 1:  # mapped under the current representatives, so not stale
            self._retarget(key, (self.representative(u), self.representative(v)), deltas)
            self._queue.pop(key, None)
        else:
            self._retarget(key, _CLEAR, deltas)
        if self._queue:
            self._drain(budget, deltas)
        return [(c, d) for c, d in deltas.items() if d != 0]

    def _drain(self, budget: float, deltas: dict[EdgeKey, int]) -> None:
        queue, image, rep = self._queue, self._image, self.representative
        while budget > 0 and queue:
            f, _ = queue.popitem()
            budget -= 1
            pair = (rep(f[0]), rep(f[1]))
            if pair != image[f]:
                self._retarget(f, pair, deltas)

    def _retarget(self, f: EdgeKey, pair, deltas: dict[EdgeKey, int]) -> None:
        """Point edge f at a new representative pair, keeping the quotient
        weights and the unmapped counter aligned."""
        old = self._image.get(f)
        if old is not None:
            if old[0] is None or old[1] is None:
                self._unmapped -= 1
            elif old[0] != old[1]:
                c = edge_key(old[0], old[1])
                self._contracted.add_weight(c, -1)
                deltas[c] = deltas.get(c, 0) - 1
        if pair is _CLEAR:
            if old is not None:
                del self._image[f]
            self._queue.pop(f, None)
            return
        self._image[f] = pair
        if pair[0] is None or pair[1] is None:
            self._unmapped += 1
        elif pair[0] != pair[1]:
            c = edge_key(pair[0], pair[1])
            self._contracted.add_weight(c, 1)
            deltas[c] = deltas.get(c, 0) + 1
