"""Layered maximal packing of edge-disjoint forests over a weighted graph."""

from __future__ import annotations

from typing import Iterable

from .forest import DynamicForest
from .graph_core import EdgeKey, WeightedGraph, WeightError


class _Weights(dict):
    """A packing's positive weights by edge. Setting or deleting an item
    goes through the packing's apply_delta; the packing itself writes the
    dict with the plain dict methods."""

    def __init__(self, packing: ForestPacking) -> None:
        super().__init__()
        self._packing = packing

    def __setitem__(self, e: EdgeKey, w: int) -> None:
        self._packing.apply_delta(e, w - self.get(e, 0))

    def __delitem__(self, e: EdgeKey) -> None:
        self._packing.apply_delta(e, -self[e])


class ForestPacking:
    """Maintains forests T_0..T_{k-1} packing a dynamically weighted graph.

    Level i holds a spanning forest of the residual graph: an edge is live
    at level i while it has weight left over after the copies used by the
    shallower forests, i.e. weight(e) - |{j in usage(e) : j < i}| > 0.
    Because residuals are non-increasing in the level index, each edge is
    present on a prefix of levels, and the structure stores only that
    prefix's length: the edge sits in each of those levels' forests.

    A level's invariant refers only to shallower levels, so the first k
    forests of a deeper packing are themselves a depth-k packing of the
    same graph: under one delta sequence they hold the same edges as a
    packing built with depth k. One deep packing therefore serves every
    shallower depth through union_graph(k).

    The invariants kept after every unit change:
      * usage(e) is the set of levels whose forest holds a copy of e, with
        |usage(e)| <= min(weight(e), depth);
      * each level's forest spans exactly the edges live at that level, so
        any live unused copy has its endpoints already connected there.

    A unit increment offers the new copy to each level past the current
    presence prefix until some forest adopts it. A unit decrement releases
    the deepest used copy when no free copy exists; the replacement edge
    pulled into that forest consumes one of its own copies, which cascades
    strictly deeper, at most once per level.

    Edges are named by their canonical keys (edge_key order), taken as
    given: the caller makes each key once. A caller may write the weights
    dict as its own: the packing follows each write.
    """

    def __init__(self, depth: int, n: int, vertices: Iterable[int] | None = None) -> None:
        if depth < 1:
            raise ValueError("packing depth must be positive")
        self.depth = depth
        self.n = n
        self.vertices: set[int] = set(range(n) if vertices is None else vertices)
        self._levels = [DynamicForest(n) for _ in range(depth)]
        self.weights = _Weights(self)
        self._usage: dict[EdgeKey, set[int]] = {}
        # per edge, the length k of its presence prefix: e is in the forests
        # of levels 0..k-1, a prefix that only grows and shrinks at its end
        self._present: dict[EdgeKey, int] = {}
        # prefix length k -> union of the first k forests, kept current by
        # _settle once it has been read
        self._unions: dict[int, WeightedGraph] = {}

    def weight(self, e: EdgeKey) -> int:
        return self.weights.get(e, 0)

    def used_levels(self, e: EdgeKey) -> frozenset[int]:
        return frozenset(self._usage.get(e, ()))

    def level_forest(self, i: int) -> set[EdgeKey]:
        return set(self._levels[i].tree_edges())

    def edges(self) -> Iterable[tuple[EdgeKey, int]]:
        return self.weights.items()

    def union_graph(self, k: int | None = None) -> WeightedGraph:
        """Union of the first k forests (all of them when k is None):
        weight(e) = number of forests T_0..T_{k-1} holding e.

        Built on the first read of each k and kept current under later
        deltas, so repeated reads cost nothing; callers must not change it.
        """
        if k is None:
            k = self.depth
        if not 1 <= k <= self.depth:
            raise ValueError(f"prefix length {k} outside 1..{self.depth}")
        g = self._unions.get(k)
        if g is None:
            g = WeightedGraph(self.vertices)
            for e, used in self._usage.items():
                w = sum(1 for j in used if j < k)
                if w:
                    g.add_weight(e, w)
            self._unions[k] = g
        return g

    def apply_delta(self, e: EdgeKey, delta: int) -> None:
        """Shift weight(e) by delta, decomposed into unit changes."""
        if self.weights.get(e, 0) + delta < 0:
            raise WeightError(f"weight of {e} would become negative")
        for _ in range(delta):
            self.increment(e)
        for _ in range(-delta):
            self.decrement(e)

    def increment(self, e: EdgeKey) -> None:
        dict.__setitem__(self.weights, e, self.weights.get(e, 0) + 1)
        self._settle(e)

    def decrement(self, e: EdgeKey) -> None:
        w = self.weights.get(e, 0)
        if w == 0:
            raise WeightError(f"edge {e} has no weight to remove")
        dict.__setitem__(self.weights, e, w - 1)
        self._settle(e)

    # -- internal machinery -------------------------------------------------

    def _target(self, key: EdgeKey) -> int:
        # deepest presence required by the residual rule, as a prefix length
        w = self.weights.get(key, 0)
        used = self._usage.get(key)
        if w == 0:
            return 0
        if used is None or len(used) < w:
            return self.depth
        return max(used) + 1

    def _settle(self, key: EdgeKey) -> None:
        stack = [key]
        while stack:
            e = stack.pop()
            w = self.weights.get(e, 0)
            used = self._usage.setdefault(e, set())
            present = self._present.get(e, 0)
            # Release over-committed forest copies, deepest first. Each
            # release may promote a replacement edge whose own copies then
            # need settling; that chain moves strictly deeper each step.
            while len(used) > w:
                lvl = max(used)
                assert present == lvl + 1
                used.discard(lvl)
                self._shift_unions(e, lvl, -1)
                present = lvl
                result = self._levels[lvl].delete(e)
                assert result.removed
                other = result.replacement
                if other is not None:
                    self._usage.setdefault(other, set()).add(lvl)
                    self._shift_unions(other, lvl, 1)
                    stack.append(other)
            target = self._target(e)
            while present > target:
                present -= 1
                result = self._levels[present].delete(e)
                assert not result.removed
            while present < target:
                # a new copy of e on the level just past its presence prefix
                if self._levels[present].insert(e):
                    used.add(present)
                    self._shift_unions(e, present, 1)
                    target = self._target(e)
                present += 1
            if present:
                self._present[e] = present
            else:
                self._present.pop(e, None)
            if w == 0 and not used:
                self.weights.pop(e, None)
                self._usage.pop(e, None)

    def _shift_unions(self, e: EdgeKey, lvl: int, delta: int) -> None:
        # a copy of e entered (+1) or left (-1) the forest at level lvl
        for k, g in self._unions.items():
            if lvl < k:
                g.add_weight(e, delta)
