"""Layer tracing by wrapping the public calls of each dyncut module.

A ``Tracer`` patches the public methods of every layer's classes, and
``stoer_wagner`` where ``dyncut.engine`` looks it up, with wrappers that
pass arguments and results through unchanged. Each wrapped call is a
span (name, start, end, parent); spans are folded into per-name count,
total time and self time as they close, so memory stays constant however
many millions of spans a replay makes. Self time is a span's duration
minus the time covered by its child spans, and minus the wrapper's own
bookkeeping around each child that falls outside the child's clock: that
cost is measured once per tracer on a wrapped no-op (``span_overhead_s``)
and charged to the tracer, not to the caller's layer.
"""

from __future__ import annotations

import time
from collections import defaultdict

import dyncut.engine as engine_module
from dyncut.contraction import StarInstance
from dyncut.engine import Engine
from dyncut.forest import DynamicForest
from dyncut.graph_core import DynamicGraph, WeightedGraph
from dyncut.packing import ForestPacking
from dyncut.sampling import StableSampler

# Layer -> (owner, attribute) pairs wrapped as spans named
# "<layer>.<attribute>". Constant-time getters (``is_complete``,
# ``has_pending``, ``degree``, ``weight``, ``current`` and the like) are
# left alone, so their cost stays in the caller's self time instead of
# being buried under the wrapper's own; so are generators (``edges``),
# whose work happens in the caller's loop.
LAYERS = {
    "graph_core": [(DynamicGraph, a) for a in ("insert_edge", "delete_edge", "min_degree", "min_degree_vertex")]
    + [(WeightedGraph, a) for a in ("add_weight", "total_weight", "copy")],
    "sampling": [(StableSampler, a) for a in ("insert", "remove")],
    "contraction": [(StarInstance, a) for a in ("apply_update", "preimage_of")],
    "packing": [(ForestPacking, a) for a in ("apply_delta", "increment", "decrement", "union_graph", "level_forest")],
    "forest": [(DynamicForest, a) for a in ("insert", "delete")],
    "mincut": [(engine_module, "stoer_wagner")],
    "engine": [(Engine, a) for a in ("insert", "delete", "update", "query_value", "query_cut")],
}


class Tracer:
    """Per-span-name aggregates plus the counters the layer metrics need."""

    def __init__(self, primary_graph: DynamicGraph) -> None:
        self.primary = primary_graph
        # name -> [count, total seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.best = 0  # running answer of the query in flight
        self._stack = [[0.0]]  # child time of each open span; [0] is the replay loop
        self._saved: list[tuple[object, str, object]] = []
        self.span_overhead_s = 0.0
        self.span_overhead_s = self._calibrate()

    def _calibrate(self) -> float:
        """Seconds per wrapped call spent in the wrapper outside its own
        clock (frame set-up, stack push and pop, aggregation), which would
        otherwise land in the caller's self time. The smallest of several
        trials, so the correction errs towards charging the caller."""

        def noop():
            pass

        wrapped = self._wrap("calibrate", noop, None)
        agg, clock, best = self.spans["calibrate"], time.perf_counter, float("inf")
        calls = 20_000
        for _ in range(7):
            inside = agg[1]
            start = clock()
            for _ in range(calls):
                wrapped()
            wrapped_s = clock() - start
            start = clock()
            for _ in range(calls):
                pass
            loop_s = clock() - start
            best = min(best, (wrapped_s - (agg[1] - inside) - loop_s) / calls)
        del self.spans["calibrate"]
        self._stack[0][0] = 0.0
        return max(best, 0.0)

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                observe = getattr(self, f"_observe_{layer}_{attr}", None)
                split = owner is DynamicGraph and attr in ("insert_edge", "delete_edge")
                setattr(owner, attr, self._wrap(f"{layer}.{attr}", original, observe, split))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, observe, split_primary=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        overhead = self.span_overhead_s
        span_name = None
        if split_primary:
            # updates of the engine's own graph and of the per-instance
            # replicas are told apart by the receiving object
            tracer = self

            def span_name(args):
                return "graph_core.primary_update" if args[0] is tracer.primary else "graph_core.replica_update"

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration + overhead
                agg = spans[span_name(args) if span_name else name]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- observers: counts taken where the work happens ----------------------

    def _observe_sampling_insert(self, args, changed) -> None:
        self.counts["sampler_changed"] += changed

    _observe_sampling_remove = _observe_sampling_insert

    def _observe_contraction_apply_update(self, args, deltas) -> None:
        self.counts["deltas"] += len(deltas)

    def _observe_packing_union_graph(self, args, graph) -> None:
        self.counts["union_edges"] += graph.edge_count

    def _observe_forest_delete(self, args, result) -> None:
        self.counts["tree_deletes"] += result.removed
        self.counts["replacements"] += result.replacement is not None

    def _observe_mincut_stoer_wagner(self, args, cut) -> None:
        graph = args[0]
        self.counts["sw_vertices"] += len(graph.vertices)
        self.counts["sw_edges"] += graph.edge_count
        if cut.value < self.best:
            self.counts["sw_useful"] += 1
            self.best = cut.value

    # -- results -----------------------------------------------------------------

    def layer_metrics(self, untraced_s, traced_wall_s, updates, queries, check, shape) -> dict:
        """Per-layer metrics as {name: (value, unit)}, named <layer>.<metric>."""
        spans, counts = self.spans, self.counts

        def calls(*names):
            return sum(spans[n][0] for n in names if n in spans)

        def total(*names):
            return sum(spans[n][1] for n in names if n in spans)

        def own(*names):
            return sum(spans[n][2] for n in names if n in spans)

        def layer_self(layer):
            return sum(v[2] for k, v in spans.items() if k.split(".", 1)[0] == layer)

        def ratio(a, b):
            return a / b if b else 0.0

        traced_s = traced_wall_s - counts["census_s"]
        apply_calls = calls("contraction.apply_update")
        sampler_ops = calls("sampling.insert", "sampling.remove")
        sw_calls = calls("mincut.stoer_wagner")
        union_calls = calls("packing.union_graph")
        layers_s = sum(layer_self(layer) for layer in LAYERS)
        loop_s = traced_s - self._stack[0][0]
        wrapper_s = self.span_overhead_s * sum(v[0] for v in spans.values())
        return {
            "graph_core.replica_update_calls": (calls("graph_core.replica_update"), "count"),
            "graph_core.replica_update_self_s": (own("graph_core.replica_update"), "s"),
            "graph_core.min_degree_calls": (calls("graph_core.min_degree", "graph_core.min_degree_vertex"), "count"),
            "graph_core.min_degree_self_s": (own("graph_core.min_degree", "graph_core.min_degree_vertex"), "s"),
            "graph_core.weight_add_calls": (calls("graph_core.add_weight"), "count"),
            "graph_core.self_s": (layer_self("graph_core"), "s"),
            "sampling.ops": (sampler_ops, "count"),
            "sampling.self_s": (layer_self("sampling"), "s"),
            "sampling.change_ratio": (ratio(counts["sampler_changed"], sampler_ops), "ratio"),
            "contraction.apply_calls": (apply_calls, "count"),
            "contraction.self_s": (layer_self("contraction"), "s"),
            "contraction.deltas_per_update": (ratio(counts["deltas"], apply_calls), "count"),
            "contraction.queue_len_max": (counts["queue_len_max"], "count"),
            "contraction.complete_frac": (ratio(counts["complete_seen"], counts["complete_checked"]), "ratio"),
            "contraction.preimage_calls": (calls("contraction.preimage_of"), "count"),
            "contraction.levels": (len(shape), "count"),
            "contraction.identity_levels": (sum(1 for x in shape if x == 1.0), "count"),
            "contraction.centers_frac_min": (min(shape), "ratio"),
            "packing.unit_changes": (calls("packing.increment", "packing.decrement"), "count"),
            "packing.self_s": (layer_self("packing"), "s"),
            "packing.union_graph_calls": (union_calls, "count"),
            "packing.union_graph_s": (total("packing.union_graph"), "s"),
            "packing.union_edges_mean": (ratio(counts["union_edges"], union_calls), "count"),
            "forest.insert_calls": (calls("forest.insert"), "count"),
            "forest.delete_calls": (calls("forest.delete"), "count"),
            "forest.self_s": (layer_self("forest"), "s"),
            "forest.replacement_ratio": (ratio(counts["replacements"], counts["tree_deletes"]), "ratio"),
            "mincut.sw_calls": (sw_calls, "count"),
            "mincut.sw_s": (total("mincut.stoer_wagner"), "s"),
            "mincut.self_s": (layer_self("mincut"), "s"),
            "mincut.sw_calls_per_query": (ratio(sw_calls, queries), "count"),
            "mincut.sw_vertices_mean": (ratio(counts["sw_vertices"], sw_calls), "count"),
            "mincut.sw_edges_mean": (ratio(counts["sw_edges"], sw_calls), "count"),
            "mincut.useful_ratio": (ratio(counts["sw_useful"], sw_calls), "ratio"),
            "engine.update_self_s": (own("engine.insert", "engine.delete", "engine.update"), "s"),
            "engine.query_self_s": (own("engine.query_value", "engine.query_cut"), "s"),
            "engine.instance_updates_per_update": (ratio(apply_calls, updates), "count"),
            "engine.answers_by_quotient": (check.answers_by_quotient, "count"),
            "engine.answers_by_degree": (check.queries - check.answers_by_quotient, "count"),
            "trace.ops": (updates + queries, "count"),
            "trace.untraced_replay_s": (untraced_s, "s"),
            "trace.traced_replay_s": (traced_s, "s"),
            "trace.overhead_frac": (ratio(traced_s - untraced_s, untraced_s), "ratio"),
            "trace.loop_self_s": (loop_s, "s"),
            "trace.span_overhead_us": (1e6 * self.span_overhead_s, "us"),
            "trace.wrapper_s": (wrapper_s, "s"),
            "trace.self_coverage": (ratio(layers_s, traced_s - wrapper_s), "ratio"),
        }

    def span_lines(self) -> list[str]:
        """One line per span name, largest self time first."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        return [f"# span {k} calls={c} total_s={t:.4f} self_s={s:.4f}" for k, (c, t, s) in rows]


def census(engine, tracer: Tracer, min_degrees):
    """Observer for a traced replay: before each query it primes the
    running answer with the minimum degree and counts complete instances
    at the level the query reads; before each update it records the
    longest relabel queue. The methods it calls are not wrapped, and its
    own time is kept in ``counts["census_s"]`` so it can be taken out of the replay.
    Engine has no public view of its instance grid, so this reads it."""
    grid = engine._instances
    instances = [inst for row in grid for inst in row]
    counts, clock = tracer.counts, time.perf_counter

    def observe(kind: str) -> None:
        start = clock()
        if kind in ("?", "?e"):
            degree = next(min_degrees)
            tracer.best = degree
            if degree > 0:
                level = min(degree.bit_length() - 1, engine.levels - 1)
                counts["complete_checked"] += len(grid)
                counts["complete_seen"] += sum(row[level].is_complete() for row in grid)
        else:
            longest = max((i.queue_length() for i in instances if i.has_pending()), default=0)
            counts["queue_len_max"] = max(counts["queue_len_max"], longest)
        counts["census_s"] += clock() - start

    return observe
