"""Acceptance gate: twelve criteria, one printed verdict line each.

Each test prints its verdict on the real stdout so the line survives
pytest's capture, then asserts. Oracle work shared by several criteria is
computed once and cached at module scope.
"""

from __future__ import annotations

import io
import math
import random
import statistics
import sys
import time
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest

from dyncut import (
    MODE_DIRECT,
    MODE_PACKED,
    DynamicForest,
    DynamicGraph,
    Engine,
    EngineConfig,
    ForestPacking,
    StableSampler,
    StarInstance,
    UpdateStream,
    WeightedGraph,
    brute_force_mincut,
    edge_key,
    generate_stream,
    render_stream,
    stoer_wagner,
)
from dyncut.cli import main as cli_main
from dyncut.contraction import DEFAULT_BUDGET_COEFF, relabel_budget
from dyncut.streams import DELETE, INSERT, QUERY_CUT, QUERY_VALUE

# pinned tolerances
SUITE_STREAMS = 20
SUITE_UPDATES = 600
SUITE_QUERY_EVERY = 15
SUITE_N = 24
SUITE_COPIES = 16
SUITE_BUDGET_S = 120.0
CUT_CHECKS = 200
PACKING_SEEDS = 50
PACKING_OPS = 2000
PRESERVE_SEEDS = 20
CHI2_TRIALS = 100_000
CHI2_CRIT = {1: 10.828, 3: 16.266, 7: 24.322}  # significance 1e-3
CHANGE_TOL = 0.01
FOREST_SEEDS = 50
FOREST_UPDATES = 1000
COMPLETENESS_SEEDS = 200
COMPLETENESS_FLOOR = 0.99
ORACLE_PAIRS = 500
BENCH_N = 256
BENCH_DEGREES = (8, 16, 32)
BENCH_REPS = 5
BENCH_NOISE = 1.05  # moves/update non-increasing in degree, 5% slack


_SINK = None


@pytest.fixture(autouse=True)
def _verdict_sink(capsys):
    """Expose capture control so verdict lines reach the real stdout."""
    global _SINK
    _SINK = capsys
    yield
    _SINK = None


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"acceptance {num:02d} {name} => {'PASS' if ok else 'FAIL'} ({detail})"
    if _SINK is not None:
        with _SINK.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _replay_suite(mode: str, model: str, seed_base: int, degree=None,
                  copies: int = SUITE_COPIES, n: int = SUITE_N,
                  updates: int = SUITE_UPDATES, streams: int = SUITE_STREAMS):
    """Replay seeded streams, returning (engine, oracle) value pairs."""
    pairs = []
    for s in range(streams):
        stream = generate_stream(model, n, updates, seed=seed_base + s,
                                 query_every=SUITE_QUERY_EVERY, degree=degree)
        eng = Engine(n, EngineConfig(mode=mode, copies=copies, seed=seed_base + s))
        shadow = WeightedGraph(range(n))
        for ev in stream.events:
            if ev.kind == INSERT:
                eng.insert(ev.edge)
                shadow.add_weight(ev.edge, 1)
            elif ev.kind == DELETE:
                eng.delete(ev.edge)
                shadow.add_weight(ev.edge, -1)
            else:
                pairs.append((eng.query_value(), stoer_wagner(shadow).value))
    return pairs


_SUITES: dict[str, tuple[list, float]] = {}


def _suite(key: str):
    if key not in _SUITES:
        started = time.perf_counter()
        if key == "packed":
            pairs = _replay_suite(MODE_PACKED, "erdos-insert-delete", 0)
        else:
            pairs = _replay_suite(MODE_DIRECT, "dense-regular", 100, degree=6)
        _SUITES[key] = (pairs, time.perf_counter() - started)
    return _SUITES[key]


def test_criterion_01_oracle_agreement_packed():
    # oracle is the deterministic static algorithm: the enumeration oracle
    # is capped at 20 vertices and criterion 10 pins their equivalence;
    # test_mincut.py::test_matches_max_flow_oracle_at_engine_sizes checks
    # the static algorithm against max flow at 20 to 64 vertices
    pairs, elapsed = _suite("packed")
    agree = sum(1 for got, want in pairs if got == want)
    ok = agree == len(pairs) and elapsed < SUITE_BUDGET_S
    _verdict(1, "oracle-agreement-packed", ok,
             f"{agree}/{len(pairs)} queries agree, {elapsed:.1f}s")


def test_criterion_02_oracle_agreement_direct():
    pairs, elapsed = _suite("direct")
    agree = sum(1 for got, want in pairs if got == want)
    ok = agree == len(pairs) and elapsed < SUITE_BUDGET_S
    _verdict(2, "oracle-agreement-direct", ok,
             f"{agree}/{len(pairs)} queries agree, {elapsed:.1f}s")


def test_criterion_03_one_sided_safety():
    pairs = list(_suite("packed")[0]) + list(_suite("direct")[0])
    # single-copy runs may overestimate but must never answer low
    for mode, model, degree in ((MODE_PACKED, "erdos-insert-delete", None),
                                (MODE_DIRECT, "dense-regular", 4)):
        pairs += _replay_suite(mode, model, 900, degree=degree, copies=1,
                               n=16, updates=300, streams=3)
    violations = sum(1 for got, want in pairs if got < want)
    _verdict(3, "one-sided-safety", violations == 0,
             f"0 underestimates required, {violations} found in {len(pairs)} queries")


def _disconnected_without(n: int, edges: set, removed: frozenset) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if (u, v) not in removed:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) < n


def test_criterion_04_cut_validity():
    checked = 0
    bad = 0
    for run, n in enumerate((12, 16, 24, 12, 16)):
        stream = generate_stream("erdos-insert-delete", n, 450, seed=40 + run,
                                 query_every=10, query_kind=QUERY_CUT)
        eng = Engine(n, EngineConfig(mode=MODE_PACKED, copies=8, seed=run,
                                     report_edges=True))
        present: set = set()
        for ev in stream.events:
            if ev.kind == INSERT:
                eng.insert(ev.edge)
                present.add(ev.edge)
            elif ev.kind == DELETE:
                eng.delete(ev.edge)
                present.discard(ev.edge)
            elif checked < CUT_CHECKS:
                cut = eng.query_cut()
                checked += 1
                if len(cut.cut_edges) != cut.value:
                    bad += 1
                elif not _disconnected_without(n, present, cut.cut_edges):
                    bad += 1
    ok = bad == 0 and checked >= CUT_CHECKS
    _verdict(4, "cut-validity", ok, f"{checked - bad}/{checked} cuts disconnect")


def _union_find_partition(n: int, edges) -> list[int]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    smallest: dict[int, int] = {}
    for v in range(n):
        smallest.setdefault(find(v), v)
    return [smallest[find(v)] for v in range(n)]


def _packing_scan_ok(p: ForestPacking, n: int, k: int, weights: dict) -> bool:
    for i in range(k):
        tree = p.level_forest(i)
        live = {
            e
            for e, w in weights.items()
            if w and w - sum(1 for j in p.used_levels(e) if j < i) > 0
        }
        if tree != {e for e, w in weights.items() if w and i in p.used_levels(e)}:
            return False
        if not tree <= live:
            return False
        comp = _union_find_partition(n, tree)
        if len(tree) != n - len(set(comp)):
            return False  # cycle
        if comp != _union_find_partition(n, live):
            return False  # not spanning, so some unused edge is adoptable
    return all(len(p.used_levels(e)) <= min(w, k)
               for e, w in weights.items() if w)


def test_criterion_05_packing_maximality_stress():
    violations = 0
    ops_checked = 0
    n = 12
    for seed in range(PACKING_SEEDS):
        k = (1, 2, 4)[seed % 3]
        rng = random.Random(seed)
        p = ForestPacking(k, n)
        weights: dict = {}
        for _ in range(PACKING_OPS):
            u, v = rng.sample(range(n), 2)
            e = edge_key(u, v)
            w = weights.get(e, 0)
            if w and rng.random() < 0.5:
                p.decrement(e)
                weights[e] = w - 1
            else:
                p.increment(e)
                weights[e] = w + 1
            ops_checked += 1
            if not _packing_scan_ok(p, n, k, weights):
                violations += 1
    _verdict(5, "packing-maximality-stress", violations == 0,
             f"{ops_checked} ops full-scanned, {violations} violations")


def test_criterion_06_packing_cut_preservation():
    mismatches = 0
    cuts_checked = 0
    for seed in range(PRESERVE_SEEDS):
        rng = random.Random(300 + seed)
        n = rng.randint(4, 10)
        weights = {}
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.55:
                weights[(u, v)] = rng.randint(1, 3)
        cut_of = lambda side, wmap: sum(
            w for (u, v), w in wmap.items() if (u in side) != (v in side)
        )
        sides = [{v for v in range(n) if bits >> v & 1}
                 for bits in range(1, 2 ** (n - 1))]
        k = max((cut_of(s, weights) for s in sides), default=1) or 1
        p = ForestPacking(k, n)
        for e, w in weights.items():
            p.apply_delta(e, w)
        union = dict(p.union_graph().edges())
        for side in sides:
            cuts_checked += 1
            if cut_of(side, weights) != cut_of(side, union):
                mismatches += 1
    _verdict(6, "packing-cut-preservation", mismatches == 0,
             f"{cuts_checked} bipartitions, {mismatches} mismatches")


def test_criterion_07_sampler_uniformity_stability():
    rng = random.Random(777)
    worst = 0.0
    ok = True
    for size in (2, 4, 8):
        counts = [0] * size
        for _ in range(CHI2_TRIALS):
            s = StableSampler(random.Random(rng.getrandbits(48)))
            for x in range(size):
                s.insert(x)
            counts[s.current()] += 1
        expected = CHI2_TRIALS / size
        stat = sum((c - expected) ** 2 / expected for c in counts)
        worst = max(worst, stat / CHI2_CRIT[size - 1])
        ok = ok and stat < CHI2_CRIT[size - 1]
    ins = 0
    for _ in range(CHI2_TRIALS):
        s = StableSampler(random.Random(rng.getrandbits(48)))
        for x in range(3):
            s.insert(x)
        ins += 1 if s.insert(3) else 0
    ins_err = abs(ins / CHI2_TRIALS - 0.25)
    rem = 0
    for _ in range(CHI2_TRIALS):
        s = StableSampler(random.Random(rng.getrandbits(48)))
        for x in range(5):
            s.insert(x)
        rem += 1 if s.remove(rng.randrange(5)) else 0
    rem_err = abs(rem / CHI2_TRIALS - 0.2)
    ok = ok and ins_err < CHANGE_TOL and rem_err < CHANGE_TOL
    _verdict(7, "sampler-uniformity-stability", ok,
             f"chi2 worst ratio {worst:.2f}, insert err {ins_err:.4f}, "
             f"delete err {rem_err:.4f}")


def test_criterion_08_forest_delta_contract():
    n = 32
    bad = 0
    for seed in range(FOREST_SEEDS):
        rng = random.Random(seed)
        forest = DynamicForest(n)
        live: set[tuple[int, int]] = set()
        for _ in range(FOREST_UPDATES):
            before = set(forest.tree_edges())
            if live and rng.random() < 0.45:
                e = rng.choice(sorted(live))
            else:
                e = edge_key(*rng.sample(range(n), 2))
            # a drawn pair that is already live is deleted: the forest
            # holds a simple graph, so it has no parallel copy to add
            if e in live:
                live.discard(e)
                forest.delete(e)
                after = set(forest.tree_edges())
                if len(before - after) > 1 or len(after - before) > 1:
                    bad += 1
            else:
                live.add(e)
                forest.insert(e)
                after = set(forest.tree_edges())
                if len(after - before) > 1 or before - after:
                    bad += 1
            # component partition must match a fresh scan of live edges
            comp = _union_find_partition(n, live)
            by_label: dict = {}
            by_comp: dict = {}
            for x in range(n):
                by_label.setdefault(forest._label[x], set()).add(x)
                by_comp.setdefault(comp[x], set()).add(x)
            if sorted(map(sorted, by_label.values())) != sorted(
                map(sorted, by_comp.values())
            ):
                bad += 1
    _verdict(8, "forest-delta-contract", bad == 0,
             f"{FOREST_SEEDS * FOREST_UPDATES} updates, {bad} contract breaks")


def _apply_to_instance(inst: StarInstance, e, sign: int) -> None:
    """Apply an edge update to the instance's graph, then to the instance."""
    if sign == 1:
        inst.graph.insert_edge(e)
    else:
        inst.graph.delete_edge(e)
    inst.apply_update(edge_key(*e), sign, math.inf)


def test_criterion_09_contraction_completeness():
    n = 64
    complete_steps = 0
    total_steps = 0
    for seed in range(COMPLETENESS_SEEDS):
        # every vertex is a center at threshold 2, where the probability clamps to 1
        inst = StarInstance(DynamicGraph(n), frozenset(range(n)), None)
        rng = random.Random(5000 + seed)
        present = set()
        for v in range(n):
            e = edge_key(v, (v + 1) % n)
            _apply_to_instance(inst, e, +1)
            present.add(e)
        for _ in range(80):
            if rng.random() < 0.5:
                u, v = rng.sample(range(n), 2)
                e = edge_key(u, v)
                if e not in present:
                    _apply_to_instance(inst, e, +1)
                    present.add(e)
            else:
                e = rng.choice(sorted(present))
                if min(inst.graph.degree(e[0]), inst.graph.degree(e[1])) > 2:
                    _apply_to_instance(inst, e, -1)
                    present.discard(e)
            assert inst.graph.min_degree() >= 2
            total_steps += 1
            complete_steps += 1 if inst.is_complete() else 0
    rate = complete_steps / total_steps
    _verdict(9, "contraction-completeness", rate >= COMPLETENESS_FLOOR,
             f"complete at {rate:.4f} of {total_steps} steps")


def test_criterion_10_static_oracle_self_consistency():
    rng = random.Random(1234)
    mismatches = 0
    for _ in range(ORACLE_PAIRS):
        n = rng.randint(2, 10)
        g = WeightedGraph(range(n))
        for u, v in combinations(range(n), 2):
            if rng.random() < rng.uniform(0.2, 0.9):
                g.add_weight((u, v), rng.randint(1, 4))
        if stoer_wagner(g).value != brute_force_mincut(g).value:
            mismatches += 1
    _verdict(10, "static-oracle-self-consistency", mismatches == 0,
             f"{ORACLE_PAIRS} graphs, {mismatches} mismatches")


def test_criterion_11_update_time_trend(monkeypatch):
    # The paper bounds the worst-case update time by O~(n/lambda). Here the
    # minimum degree delta enters the cost only through the relabel budget
    # relabel_budget(n, delta, budget_coeff)
    # = ceil(budget_coeff * n * log2(n)^4 / delta), so the criterion
    # counts edge moves, the unit that budget is stated in: one per
    # instance update for its own edge, which apply_update counts inline,
    # plus one per _retarget call, at a relabel or in the drain. Over the
    # updates made once the circulant warm-up has brought the minimum degree
    # to `degree`, no instance update may exceed 1 + budget (the update's own
    # edge plus the budgeted moves), and the mean moves per update may not
    # grow with delta.
    # Wall-clock time per held-degree update is printed for information
    # only: the paper promises no fall.
    moves = 0
    counting = False
    worst = dict.fromkeys(BENCH_DEGREES, 0)
    budget_min = dict.fromkeys(BENCH_DEGREES, math.inf)
    breaches = 0
    retarget = StarInstance._retarget
    apply_update = StarInstance.apply_update

    def counted_retarget(self, *args):
        nonlocal moves
        moves += 1
        retarget(self, *args)

    def checked_apply_update(self, e, sign, budget):
        # the bound is the paper's budget at the graph's minimum degree, not
        # the argument: identity-only engines hand every view an unbounded
        # budget, which no update could breach
        nonlocal breaches, moves
        before = moves
        moves += 1  # the update's own edge
        out = apply_update(self, e, sign, budget)
        if counting:
            taken = moves - before
            bound = relabel_budget(self.graph.n, self.graph.min_degree(),
                                   DEFAULT_BUDGET_COEFF)
            assert budget == math.inf or budget == bound
            worst[degree] = max(worst[degree], taken)
            budget_min[degree] = min(budget_min[degree], bound)
            breaches += taken > 1 + bound
        return out

    monkeypatch.setattr(StarInstance, "_retarget", counted_retarget)
    monkeypatch.setattr(StarInstance, "apply_update", checked_apply_update)

    per_update = {}
    held_us = {}
    for degree in BENCH_DEGREES:
        rep_moves = []
        rep_us = []
        for rep in range(BENCH_REPS):
            warm = BENCH_N * degree // 2
            stream = generate_stream("dense-regular", BENCH_N, warm + 600,
                                     seed=60 + rep, degree=degree)
            eng = Engine(BENCH_N, EngineConfig(mode=MODE_DIRECT, copies=8,
                                               seed=rep))
            counting = False
            for ev in stream.events[:warm]:
                eng.update(ev.edge, 1 if ev.kind == INSERT else -1)
            assert eng.graph.min_degree() >= degree
            held = stream.events[warm:]
            counting = True
            moves = 0
            spent = 0.0
            for ev in held:
                t0 = time.perf_counter()
                eng.update(ev.edge, 1 if ev.kind == INSERT else -1)
                spent += time.perf_counter() - t0
                assert eng.graph.min_degree() >= degree
            rep_moves.append(moves / len(held))
            rep_us.append(spent / len(held) * 1e6)
        per_update[degree] = statistics.mean(rep_moves)
        held_us[degree] = statistics.mean(rep_us)
    m8, m16, m32 = (per_update[d] for d in BENCH_DEGREES)
    ok = (breaches == 0
          and m16 <= m8 * BENCH_NOISE and m32 <= m16 * BENCH_NOISE)

    def by_degree(values, spec):
        return "/".join(format(values[d], spec) for d in BENCH_DEGREES)

    _verdict(11, "update-time-trend", ok,
             f"held-degree moves/update at degree 8/16/32: "
             f"{by_degree(per_update, '.1f')}, worst per instance update "
             f"{by_degree(worst, 'd')} against budget "
             f"{by_degree(budget_min, 'd')}, {breaches} breaches; "
             f"us/update with counters {by_degree(held_us, '.0f')} "
             f"(not asserted)")


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


def test_criterion_12_run_determinism(tmp_path):
    diffs = 0
    runs = 0
    for idx, (model, mode) in enumerate(
        [("erdos-insert-delete", "packed"), ("erdos-insert-delete", "direct"),
         ("sliding-window", "packed"), ("dense-regular", "direct")]
    ):
        stream = generate_stream(model, 14, 200, seed=70 + idx, query_every=9,
                                 query_kind=QUERY_CUT if idx % 2 else QUERY_VALUE)
        path = tmp_path / f"s{idx}.txt"
        path.write_text(render_stream(stream))
        argv = ["run", str(path), "--mode", mode, "--copies", "6",
                "--seed", str(idx)]
        runs += 1
        if _run_cli(argv) != _run_cli(argv):
            diffs += 1
    _verdict(12, "run-determinism", diffs == 0,
             f"{runs} stream/flag combos, {diffs} divergent")
