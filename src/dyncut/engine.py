"""Fully dynamic minimum cut engine over a grid of contraction instances."""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .contraction import DEFAULT_BUDGET_COEFF, DEFAULT_CENTER_COEFF
from .contraction import StarInstance, center_probability, relabel_budget
from .graph_core import DynamicGraph, EdgeKey, edge_key
from .mincut import CutResult, stoer_wagner
from .packing import ForestPacking

MODE_PACKED = "packed"
MODE_DIRECT = "direct"
_UNBOUNDED = math.inf  # loads faster than math.inf on every update


def _child_seed(master: int, copy: int, level: int) -> int:
    digest = hashlib.sha256(f"{master}:{copy}:{level}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class EngineConfig:
    """Engine settings; Engine raises ValueError on a value out of range.

    mode: "packed" (default) reads views through forest packings, "direct"
    reads their quotients. copies: independent copies, an int >= 1; None
    (default) means ceil(5 * log2(max(n, 2))). seed: any int (default 0).
    center_coeff (default 800) and budget_coeff (default 1), each finite
    and positive, scale center_probability and relabel_budget; budget_coeff
    caps the relabels one update drains per view in either mode.
    report_edges (default False): query_cut needs it True.
    """

    mode: str = MODE_PACKED
    copies: int | None = None
    seed: int = 0
    center_coeff: float = DEFAULT_CENTER_COEFF
    budget_coeff: float = DEFAULT_BUDGET_COEFF
    report_edges: bool = False


class Engine:
    """Maintains the exact global minimum cut value under edge updates.

    Each independent copy c fills one grid cell per threshold 2^i,
    i = 0..floor(log2(n-1)). Where p = center_probability(n, 2^i,
    center_coeff) is below 1, a random.Random seeded from (seed, c, i) keeps
    each vertex in id order with probability p and feeds the sampler of a
    StarInstance on those centers; one shared identity instance, which never
    samples, fills every cell whose centers are all of V. The view table
    maps each distinct instance that updates reach to its packing, 2^(i+1)
    forests deep for the deepest level i it fills, or to None in direct
    mode; a level j query reads the union of the first 2^(j+1) forests, or
    in direct mode the quotient itself. A packed view writes its quotient
    weights straight into its packing's weights, so the packing takes each
    unit change as the view makes it. In direct mode the identity is built
    on the graph's edge record (DynamicGraph.unit_weights), so its quotient
    is the input graph itself, and it is left out of the view table: no
    update reaches it. An update is applied once to the one DynamicGraph
    every instance reads, then reaches every view in the table alike with
    one canonical key and one relabel budget: relabel_budget(n, delta,
    budget_coeff) in either mode, with delta read once, or no bound, with
    delta unread, when every view is the identity, which never queues a
    relabel. A query runs a static cut on each complete distinct instance at
    the level just below the minimum degree and never answers below the
    true cut value; the minimum degree is an always-valid fallback. A
    simple graph's minimum degree is at most n - 1, so a query can read
    every level built (there are none at n = 1). audit() checks the
    engine's invariants on demand; `dyncut verify` runs it after every
    query.
    """

    def __init__(self, n: int, config: EngineConfig | None = None) -> None:
        if n < 1:
            raise ValueError("vertex count must be positive")
        self.config = config or EngineConfig()
        if self.config.mode not in (MODE_PACKED, MODE_DIRECT):
            raise ValueError(f"unknown engine mode {self.config.mode!r}")
        for name in ("center_coeff", "budget_coeff"):
            value = getattr(self.config, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        self.n = n
        self.levels = (n - 1).bit_length()
        if self.config.copies is None:
            self.copies = math.ceil(5 * math.log2(max(n, 2)))
        elif not isinstance(self.config.copies, int):
            raise ValueError(f"copies must be an integer, got {self.config.copies!r}")
        elif self.config.copies < 1:
            raise ValueError(f"copies must be positive, got {self.config.copies}")
        else:
            self.copies = self.config.copies
        self.graph = DynamicGraph(n)
        # The view table: each distinct instance that updates reach with its
        # packing (None in direct mode), as deep as the deepest level i it
        # fills, so a level i cell reads the union of its first 2^(i+1)
        # forests. The direct-mode identity reads the graph and is not in it.
        self._views: dict[StarInstance, ForestPacking | None] = {}
        everyone = frozenset(range(n))
        # Grid of copies x levels whose cells alias the shared instances;
        # perfbench reads it to describe the views. Cells whose centers are
        # all of V hold None until the shared identity, which never
        # samples, is built as deep as the deepest of them.
        self._instances: list[list[StarInstance]] = []
        identity_level = -1
        for c in range(self.copies):
            row = []
            for i in range(self.levels):
                p = center_probability(n, 2**i, self.config.center_coeff)
                inst = None
                if p < 1:
                    rng = random.Random(_child_seed(self.config.seed, c, i))
                    centers = frozenset(v for v in range(n) if rng.random() < p)
                    if centers != everyone:
                        inst = self._view(centers, rng, i)
                if inst is None:
                    identity_level = max(identity_level, i)
                row.append(inst)
            self._instances.append(row)
        # only contracting views so far; the identity never queues a relabel
        self._throttled = bool(self._views)
        if identity_level >= 0:
            identity = self._view(everyone, None, identity_level)
            for row in self._instances:
                row[:] = [identity if inst is None else inst for inst in row]

    def _view(self, centers: frozenset[int], rng: random.Random | None,
              level: int) -> StarInstance:
        """A new view on centers, entered in the view table with its
        packing; in direct mode the identity is built on the graph's edge
        record instead, so its quotient is the input graph, and left out."""
        packing = weights = None
        if self.config.mode == MODE_PACKED:
            packing = ForestPacking(2 ** (level + 1), self.n, centers)
            weights = packing.weights
        elif len(centers) == self.n:
            return StarInstance(self.graph, centers, rng, self.graph.unit_weights)
        inst = StarInstance(self.graph, centers, rng, weights)
        self._views[inst] = packing
        return inst

    def insert(self, e: EdgeKey) -> None:
        self.update(e, 1)

    def delete(self, e: EdgeKey) -> None:
        self.update(e, -1)

    def update(self, e: EdgeKey, sign: int) -> None:
        key = edge_key(*e)
        if sign == 1:
            self.graph.insert_edge(key)
        elif sign == -1:
            self.graph.delete_edge(key)
        else:
            raise ValueError(f"update sign must be +1 or -1, got {sign}")
        budget = _UNBOUNDED
        if self._throttled:  # one read of delta serves every view
            delta = self.graph.min_degree()
            budget = relabel_budget(self.n, delta, self.config.budget_coeff)
        for inst in self._views:
            inst.apply_update(key, sign, budget)

    # -- on-demand stats -------------------------------------------------

    def completeness(self) -> list[float]:
        """Per level, the fraction of copies whose instance is complete now."""
        return [
            sum(row[i].is_complete() for row in self._instances) / self.copies
            for i in range(self.levels)
        ]

    def queue_length(self) -> int:
        """Live edges queued as possibly stale, summed over the view table;
        each instance holds an edge at most once."""
        return sum(inst.queue_length() for inst in self._views)

    def moves(self) -> int:
        """Edges moved besides each update's own since the engine was
        built, summed over the view table."""
        return sum(inst.moves for inst in self._views)

    def audit(self) -> None:
        """Check the engine's invariants; raises AssertionError naming the
        first broken one. Runs the graph's audit, which also covers the
        direct-mode identity's quotient, the graph's edge record; then, per
        view in the view table, checks that it reads the engine's graph and
        runs the audit of its packing (in packed mode, over the weights the
        view writes) and its own."""
        self.graph.audit()
        for inst, packing in self._views.items():
            if inst.graph is not self.graph:
                raise AssertionError(
                    f"views: the view on {len(inst.centers)} centers reads"
                    " another graph")
            if packing is not None:
                packing.audit()
            inst.audit()

    # -- queries ---------------------------------------------------------

    def _level_for_degree(self, degree: int) -> int:
        return degree.bit_length() - 1

    def _evaluate(self) -> tuple[int, StarInstance | None, frozenset[int] | None]:
        """The answer with the instance and quotient side it was read from;
        the minimum degree answer has neither (its side is found on demand:
        a value query never needs it)."""
        degree = self.graph.min_degree()
        best, source, side = degree, None, None
        if degree == 0:
            return best, source, side
        level = self._level_for_degree(degree)
        # each distinct instance once, in the order the copies hold them
        for inst in dict.fromkeys(row[level] for row in self._instances):
            if not inst.is_complete():
                continue
            packing = self._views.get(inst)
            if packing is not None:
                quotient = packing.union_graph(2 ** (level + 1))
            else:
                quotient = inst.contracted_graph()
            if len(quotient.vertices) < 2:
                continue  # everything merged into one side, no cut to read
            cut = stoer_wagner(quotient)
            if cut.value < best:
                best, source, side = cut.value, inst, cut.side
        return best, source, side

    def query_value(self) -> int:
        """Exact minimum cut value (0 when the graph is disconnected)."""
        return self._evaluate()[0]

    def query_cut(self) -> CutResult:
        """Minimum cut value plus a witness edge set and side."""
        if not self.config.report_edges:
            raise RuntimeError("cut reporting is disabled; set report_edges")
        value, source, side = self._evaluate()
        # Either answer names a side of the input graph and the witness is
        # the input edges crossing it; a complete instance's quotient is the
        # contraction under its current representatives.
        if source is None:
            side = frozenset([self.graph.min_degree_vertex()])
        else:
            rep = source.representative
            side = frozenset(v for v in range(self.n) if rep(v) in side)
        edges = frozenset(
            edge_key(v, x) for v in side for x in self.graph.neighbors(v) - side
        )
        return CutResult(value, side, edges)
