"""Fully dynamic minimum cut engine over a grid of contraction instances."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .contraction import DEFAULT_BUDGET_COEFF, DEFAULT_CENTER_COEFF, StarInstance
from .graph_core import DynamicGraph, EdgeKey, edge_key
from .mincut import CutResult, stoer_wagner
from .packing import ForestPacking

MODE_PACKED = "packed"
MODE_DIRECT = "direct"


def _child_seed(master: int, copy: int, level: int) -> int:
    digest = hashlib.sha256(f"{master}:{copy}:{level}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class EngineConfig:
    mode: str = MODE_PACKED
    copies: int | None = None
    seed: int = 0
    center_coeff: float = DEFAULT_CENTER_COEFF
    budget_coeff: float = DEFAULT_BUDGET_COEFF
    report_edges: bool = False


@dataclass
class EngineStats:
    updates: int = 0
    queries: int = 0


class Engine:
    """Maintains the exact global minimum cut value under edge updates.

    Each independent copy draws one contraction instance per threshold
    2^i, i = 0..ceil(log2 n). An instance whose drawn center set is all of
    V is the identity contraction: it has no samplers, so every such
    instance holds the same quotient (the graph itself) under the same
    updates, and one shared identity instance fills all of those grid
    cells. The view table maps each distinct instance to its packing, or
    to None in direct mode. In packed mode instances relabel eagerly and
    each feeds its quotient weight deltas into one forest packing of depth
    2^(i+1) for the deepest level i it fills, and a query at level j runs a
    static cut on the union of that packing's first 2^(j+1) forests, which
    is the depth-2^(j+1) packing of the same quotient; in direct mode
    instances relabel lazily and queries run the static cut on the quotient
    graph itself. Every instance reads the engine's one DynamicGraph and
    keeps no copy of it: an update is applied to that graph once, which
    rejects duplicate, missing and out-of-range edges before any instance
    sees them, and then reaches every view once. A query consults only the
    distinct instances at the threshold level just below the current
    minimum degree, skips incomplete ones, and never answers below the true
    cut value; the minimum degree is an always-valid fallback. Statistics
    beyond the update and query counts are read from the views on demand.
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
        log_n = math.log2(max(n, 2))
        self.levels = math.ceil(log_n) + 1
        if self.config.copies is None:
            self.copies = max(1, math.ceil(5 * log_n))
        elif self.config.copies < 1:
            raise ValueError(f"copies must be positive, got {self.config.copies}")
        else:
            self.copies = self.config.copies
        self.graph = DynamicGraph(n)
        packed = self.config.mode == MODE_PACKED
        instance_mode = "eager" if packed else "lazy"
        everyone = frozenset(range(n))
        # Stands in for every drawn identity instance. Its threshold is moot:
        # with no non-centers it never queues a relabel, and its relabel
        # budget does not read the threshold.
        identity = StarInstance(
            self.graph,
            threshold=1,
            mode=instance_mode,
            center_coeff=self.config.center_coeff,
            budget_coeff=self.config.budget_coeff,
            centers=everyone,
        )
        # Grid of copies x levels whose cells alias the shared instances;
        # perfbench reads it to describe the views.
        self._instances: list[list[StarInstance]] = []
        # Each distinct instance once, in first-seen order, with the deepest
        # level it fills.
        deepest: dict[StarInstance, int] = {}
        for c in range(self.copies):
            row = []
            for i in range(self.levels):
                inst = StarInstance(
                    self.graph,
                    threshold=2**i,
                    mode=instance_mode,
                    seed=_child_seed(self.config.seed, c, i),
                    center_coeff=self.config.center_coeff,
                    budget_coeff=self.config.budget_coeff,
                )
                if inst.centers == everyone:
                    inst = identity
                deepest[inst] = max(deepest.get(inst, i), i)
                row.append(inst)
            self._instances.append(row)
        # The view table: each distinct instance with its packing (None in
        # direct mode), as deep as the deepest level it fills, so a level i
        # cell reads the union of its first 2^(i+1) forests.
        self._views: dict[StarInstance, ForestPacking | None] = {
            inst: ForestPacking(2 ** (i + 1), n, inst.centers) if packed else None
            for inst, i in deepest.items()
        }
        self.stats = EngineStats()

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
        for inst, packing in self._views.items():
            deltas = inst.apply_update(key, sign)
            if packing is not None:
                for quotient_edge, d in deltas:
                    packing.apply_delta(quotient_edge, d)
        self.stats.updates += 1

    # -- on-demand stats -------------------------------------------------

    def completeness(self) -> list[float]:
        """Per level, the fraction of copies whose instance is complete now."""
        return [
            sum(row[i].is_complete() for row in self._instances) / self.copies
            for i in range(self.levels)
        ]

    def queue_length(self) -> int:
        """Edge moves still queued across the distinct instances."""
        return sum(inst.queue_length() for inst in self._views)

    # -- queries ---------------------------------------------------------

    def _level_for_degree(self, degree: int) -> int:
        return min(degree.bit_length() - 1, self.levels - 1)

    def _evaluate(self) -> tuple[int, str, object]:
        degree = self.graph.min_degree()
        if degree == 0:
            return 0, "degree", self.graph.min_degree_vertex()
        level = self._level_for_degree(degree)
        best = degree
        kind = "degree"
        payload: object = self.graph.min_degree_vertex()
        seen: set[StarInstance] = set()
        for c, row in enumerate(self._instances):
            inst = row[level]
            if inst in seen:
                continue  # an earlier copy holds this instance
            seen.add(inst)
            if not inst.is_complete():
                continue
            packing = self._views[inst]
            if packing is not None:
                quotient = packing.union_graph(2 ** (level + 1))
            else:
                quotient = inst.contracted_graph()
            if len(quotient.vertices) < 2:
                continue  # everything merged into one side, no cut to read
            cut = stoer_wagner(quotient)
            if cut.value < best:
                best = cut.value
                kind = "quotient"
                payload = (c, level, cut.side)
        return best, kind, payload

    def query_value(self) -> int:
        """Exact minimum cut value (0 when the graph is disconnected)."""
        self.stats.queries += 1
        value, _, _ = self._evaluate()
        return value

    def query_cut(self) -> CutResult:
        """Minimum cut value plus a witness edge set and side."""
        if not self.config.report_edges:
            raise RuntimeError("cut reporting is disabled; set report_edges")
        self.stats.queries += 1
        value, kind, payload = self._evaluate()
        if kind == "degree":
            vertex = payload
            if value == 0:
                return CutResult(0, frozenset([vertex]), frozenset())
            edges = frozenset(edge_key(vertex, x) for x in self.graph.neighbors(vertex))
            return CutResult(value, frozenset([vertex]), edges)
        c, level, side = payload
        inst = self._instances[c][level]
        edges: set[EdgeKey] = set()
        for quotient_edge, _ in inst.contracted_graph().edges():
            if (quotient_edge[0] in side) != (quotient_edge[1] in side):
                edges |= inst.preimage_of(quotient_edge)
        original_side = frozenset(
            v for v in range(self.n) if inst.representative(v) in side
        )
        return CutResult(value, original_side, frozenset(edges))
