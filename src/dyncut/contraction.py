"""Randomized star contraction maintained under edge updates."""

from __future__ import annotations

import math
import random

from .graph_core import DynamicGraph, EdgeKey, WeightedGraph, WeightError
from .sampling import StableSampler

DEFAULT_CENTER_COEFF = 800.0
DEFAULT_BUDGET_COEFF = 1.0


def relabel_budget(n: int, min_degree: int, coeff: float = DEFAULT_BUDGET_COEFF) -> int:
    """Edge moves one update may drain from a relabel queue: the paper's
    O~(n / lambda) budget, ceil(coeff * n * log2(n)^4 / max(delta, 1))."""
    return math.ceil(coeff * n * math.log2(max(n, 2)) ** 4 / max(min_degree, 1))


def center_probability(n: int, threshold: int,
                       coeff: float = DEFAULT_CENTER_COEFF) -> float:
    """The chance that each vertex is drawn as a center of a contraction at
    a degree threshold: the paper's min(1, coeff * log2(n) / threshold)."""
    if threshold < 1:
        raise ValueError("threshold must be positive")
    return min(1.0, coeff * math.log2(max(n, 2)) / threshold)


class StarInstance:
    """One contraction of the input graph onto a given center set.

    The instance reads the caller's DynamicGraph and never changes it: the
    caller validates each edge update and applies it to that graph first,
    then passes the edge's canonical key to apply_update. Any number of
    instances can read one graph.

    The instance contracts onto the center set it is handed; the caller
    draws it (the engine keeps each vertex with center_probability at the
    cell's threshold) and hands in the random source the samplers draw
    their priorities from. Every non-center tracks its center neighbors in
    a StableSampler and is merged into the sampled one; centers represent
    themselves. A table of n entries holds every vertex's representative:
    a center's own id, a non-center's sampled center, or None while it has
    no center neighbor; an entry is written only when its sampler's sample
    changes, and every read of a representative indexes the table. The
    instance keeps the resulting weighted quotient graph incrementally:
    every live edge is counted, in the quotient weights or in the unmapped
    counter, under one pair of endpoint representatives, and a quotient
    edge's preimage is read from those pairs on demand. The instance writes
    the quotient weights itself, never through WeightedGraph.add_weight,
    into an empty dict the caller may hand in (a packing's weights, which
    follow each write) or else its own; the quotient it hands out reads
    that dict. apply_update counts or uncounts the update's own edge
    inline; every other edge moves through _retarget.

    Relabeling keeps one invariant: an edge outside the relabel queue is
    counted under its endpoints' current representatives, and the queue
    maps every other live edge to the pair it is still counted under, so
    only stale edges store a pair. A representative change makes the
    vertex's unqueued edges stale. When the vertex's degree is within the
    budget its caller hands in, the update moves each of them at once from
    the representative the vertex had before to its new one, one unit of
    budget per edge; otherwise it queues them all under the one before, so
    the queue holds only the edges a budget defers (at the default
    coefficient and n <= 65,540 the budget is at least n - 1, so no queue
    is written).
    The update's own edge is never queued: an insertion is counted once,
    under the representatives its sampler update left; a deletion is
    uncounted under its queued pair, or else the representatives before
    its sampler update, and taken out. The budget left then pops queued
    edges (math.inf drains the queue in full), newest first, one unit per
    pop, and moves each one's count to its endpoints' current
    representatives. Moving a fresh edge at once ends where queueing it
    and popping it first would, so the budget decides only how much the
    drain leaves behind.

    audit() checks this invariant and the table on demand.
    """

    def __init__(self, graph: DynamicGraph, centers: frozenset[int],
                 rng: random.Random | None,
                 weights: dict[EdgeKey, int] | None = None) -> None:
        self.graph = graph
        self._rng = rng  # None only where no vertex needs a sampler
        self.centers = centers
        self._samplers: dict[int, StableSampler] = {}
        # each vertex's representative, kept equal to its sampler's sample
        self._rep: list[int | None] = [
            v if v in centers else None for v in range(graph.n)
        ]
        # positive quotient weights by center pair, written only by
        # apply_update and _retarget; the quotient graph shares the dict
        self._weights = {} if weights is None else weights
        self._contracted = WeightedGraph(self.centers, self._weights)
        self._unmapped = 0
        # live edges whose relabel the budget deferred, insertion-ordered,
        # each with the pair it is counted under, aligned with the canonical
        # endpoint order (a None side has no representative: the edge counts
        # as unmapped); no answer depends on the order, since a view with a
        # queue is never read
        self._queue: dict[EdgeKey, tuple[int | None, int | None]] = {}

    # -- representatives ----------------------------------------------------

    def representative(self, v: int) -> int | None:
        return self._rep[v]

    # -- contracted view -----------------------------------------------------

    def contracted_graph(self) -> WeightedGraph:
        """Live quotient graph over the center set; treat as read-only."""
        return self._contracted

    def preimage_of(self, c: EdgeKey) -> frozenset[EdgeKey]:
        """Live edges counted under the quotient edge c, named by its
        canonical key: a queued edge under its queued pair, any other under
        its endpoints' current representatives."""
        queue, rep = self._queue, self._rep
        return frozenset(
            f for f in self.graph.edges()
            if (queue.get(f) or (rep[f[0]], rep[f[1]])) in (c, c[::-1])
        )

    def is_complete(self) -> bool:
        """True when every live edge is mapped and no edge is queued."""
        return not self._queue and self._unmapped == 0

    def queue_length(self) -> int:
        return len(self._queue)

    def has_pending(self) -> bool:
        return bool(self._queue)

    def audit(self) -> None:
        """Check the relabel invariant in one pass over the live edges.

        Raises AssertionError naming the first broken check and the first
        vertex or edge that breaks it: "rep table" (an entry that is not
        the vertex itself for a center, or its sampler's current() or None
        for a non-center), "queue" (a queued key that is not the canonical
        key of a live edge), "quotient" (a weight that differs from the
        number of live edges counted under its pair, each under its queued
        pair or else its endpoints' current representatives) or "unmapped"
        (likewise for the edges counted with no representative).
        """
        rep, queue, graph = self._rep, self._queue, self.graph
        for v in range(graph.n):
            if v in self.centers:
                want = v
            else:
                sampler = self._samplers.get(v)
                want = None if sampler is None else sampler.current()
            if rep[v] != want:
                raise AssertionError(
                    f"rep table: vertex {v} maps to {rep[v]}, its samplers to {want}")
        for f in queue:
            u, v = f
            if not (0 <= u < v < graph.n and v in graph.neighbors(u)):
                raise AssertionError(
                    f"queue: key {f} is not the canonical key of a live edge")
        weights: dict[EdgeKey, int] = {}
        unmapped = 0
        for f in graph.edges():
            a, b = queue.get(f) or (rep[f[0]], rep[f[1]])
            if a is None or b is None:
                unmapped += 1
            elif a != b:
                c = (a, b) if a < b else (b, a)
                weights[c] = weights.get(c, 0) + 1
        held = self._weights
        if held != weights:  # a stored zero differs from an absent key
            c = min(c for c in held.keys() | weights.keys()
                    if held.get(c) != weights.get(c))
            raise AssertionError(
                f"quotient: edge {c} weighs {held.get(c, 0)}, its live edges"
                f" number {weights.get(c, 0)}")
        if self._contracted.vertices != self.centers:
            strays = sorted(self._contracted.vertices ^ self.centers)
            raise AssertionError(f"quotient: vertices {strays} are not the centers")
        if self._unmapped != unmapped:
            raise AssertionError(
                f"unmapped: counted as {self._unmapped}, {unmapped} live edges"
                " have no representative pair")

    # -- updates -------------------------------------------------------------

    def apply_update(self, key: EdgeKey, sign: int, budget: float) -> list:
        """Apply one edge update; returns [] (perfbench reads its length).

        key is the edge's canonical key (edge_key order) and sign is +1 for
        insertion or -1 for deletion; the caller has validated both and has
        already applied the update to the graph. At most budget edges move
        besides the update's own: a relabeled vertex's stale edges, all at
        once when its degree is within the budget (else they are queued),
        then queued edges until the budget is spent.
        """
        queue, rep = self._queue, self._rep
        u, v = key
        if sign == -1:  # read before the sampler update below moves a rep
            counted = queue.pop(key, None) or (rep[u], rep[v])
        u_center = rep[u] == u  # only a center represents itself
        if u_center != (rep[v] == v):
            center, other = (u, v) if u_center else (v, u)
            sampler = self._samplers.get(other)
            if sampler is None:
                sampler = self._samplers[other] = StableSampler(self._rng)
            changed = sampler.insert(center) if sign == 1 else sampler.remove(center)
            if changed:  # other's unqueued edges are still counted under before
                before = rep[other]
                after = rep[other] = sampler.current()
                edges = self.graph.neighbors(other)
                now = len(edges) <= budget  # else the budget defers them all
                for x in edges:
                    if x == center:  # an insertion's own edge, not counted yet
                        continue
                    f = (other, x) if other < x else (x, other)
                    if f in queue:
                        continue
                    r = rep[x]
                    if now:  # where a drain popping it first would move it
                        self._retarget((before, r), (after, r))
                        budget -= 1
                    else:
                        queue[f] = (before, r) if other < x else (r, before)
        a, b = (rep[u], rep[v]) if sign == 1 else counted
        # count (or uncount) the update's own edge under (a, b)
        if a is None or b is None:
            self._unmapped += sign
        elif a != b:
            c = (a, b) if a < b else (b, a)
            weights = self._weights
            w = weights.get(c, 0) + sign
            if w > 0:
                weights[c] = w
            elif w == 0:
                del weights[c]
            else:
                raise WeightError(f"weight of {c} would become {w}")
        if queue:
            self._drain(budget)
        return []

    def _drain(self, budget: float) -> None:
        queue, rep = self._queue, self._rep
        while budget > 0 and queue:
            f, old = queue.popitem()
            budget -= 1
            new = (rep[f[0]], rep[f[1]])
            if new != old:
                self._retarget(old, new)

    def _retarget(self, old, new) -> None:
        """Move one stale edge's count from pair old to pair new."""
        weights = self._weights
        for (a, b), d in ((old, -1), (new, 1)):
            if a is None or b is None:
                self._unmapped += d
            elif a != b:
                c = (a, b) if a < b else (b, a)
                w = weights.get(c, 0) + d
                if w > 0:
                    weights[c] = w
                elif w == 0:
                    del weights[c]
                else:
                    raise WeightError(f"weight of {c} would become {w}")
