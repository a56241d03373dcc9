"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit
for every workload, that a replay with a speed probe scales the timing of
every call, that the answer checker flags a corrupted value and a
witness that does not disconnect the graph, that the oracle agrees with
dyncut's exhaustive static cut, and that the planted-cut generator emits
legal, seeded updates. Runs in well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import run

run._import_dyncut()

from dyncut import DynamicGraph, WeightedGraph, brute_force_mincut  # noqa: E402
from oracle import check_answers, min_cut_value  # noqa: E402
from workloads import TINY, PlantedCut  # noqa: E402

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


@contextlib.contextmanager
def tiny_limits():
    saved = run.SETUPS, run.MIN_UPDATES, run.MIN_QUERIES, run.TRACE_MIN_QUERIES
    run.SETUPS, run.MIN_UPDATES, run.MIN_QUERIES, run.TRACE_MIN_QUERIES = 2, 60, 10, 4
    try:
        yield
    finally:
        run.SETUPS, run.MIN_UPDATES, run.MIN_QUERIES, run.TRACE_MIN_QUERIES = saved


def _result(name: str, trace: int) -> dict:
    out = io.StringIO()
    with tiny_limits(), contextlib.redirect_stdout(out):
        run.run_one(name, seed=5, seconds=1, trace=trace, workloads=TINY)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_every_metric_named_with_unit():
    assert set(TINY) == {w["name"] for w in SPEC["workloads"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for name in TINY:
            result = _result(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            for key, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, key)


def _tiny_replay(name: str):
    workload = TINY[name]
    preload, events = workload.make(3)
    engine, _ = run.setup(workload, preload)
    result = run.replay(engine, events, lambda wall, updates, queries: queries >= 12)
    return workload, preload, result


def test_probed_replay_scales_every_call():
    workload = TINY["churn-contract"]
    preload, events = workload.make(3)
    engine, _ = run.setup(workload, preload)
    probe = run.SpeedProbe()
    result = run.replay(engine, events, lambda elapsed, updates, queries: updates >= 200, probe=probe)
    assert len(result.scaled_update_s) == len(result.update_s) >= 200
    assert len(result.scaled_query_s) == len(result.query_s)
    scales = {round(s / t, 9) for s, t in zip(result.scaled_update_s, result.update_s)}
    # one scale per stretch between two probes, from the probes' own times
    ref = run.SpeedProbe.REFERENCE_S
    assert len(scales) <= len(probe.times) - 1
    assert all(ref / max(probe.times) - 1e-6 <= x <= ref / min(probe.times) + 1e-6 for x in scales)


def _shadow_at(n, preload, ops, query_index):
    adj = [set() for _ in range(n)]
    for u, v in preload:
        adj[u].add(v)
        adj[v].add(u)
    q = 0
    for kind, edge in ops:
        if kind == "+":
            adj[edge[0]].add(edge[1])
            adj[edge[1]].add(edge[0])
        elif kind == "-":
            adj[edge[0]].discard(edge[1])
            adj[edge[1]].discard(edge[0])
        elif q == query_index:
            return adj
        else:
            q += 1
    raise IndexError(query_index)


def test_checker_accepts_engine_and_flags_corruption():
    workload, preload, result = _tiny_replay("planted-direct")
    clean = check_answers(workload.n, preload, result.ops, result.answers)
    assert clean.wrong == [] and clean.answers_by_quotient > 0

    answers = list(result.answers)
    value_q = next(i for i, a in enumerate(answers) if isinstance(a, int))
    answers[value_q] += 1
    flagged = check_answers(workload.n, preload, result.ops, answers)
    assert [q for q, _ in flagged.wrong] == [value_q]

    answers = list(result.answers)
    cut_q = next(i for i, a in enumerate(answers) if not isinstance(a, int))
    cut = answers[cut_q]
    adj = _shadow_at(workload.n, preload, result.ops, cut_q)
    inner = [(u, v) for u in range(workload.n) for v in adj[u] if u < v and (u, v) not in cut.cut_edges]
    bogus = frozenset(random.Random(0).sample(inner, len(cut.cut_edges)))
    answers[cut_q] = type(cut)(cut.value, cut.side, bogus)
    flagged = check_answers(workload.n, preload, result.ops, answers)
    assert flagged.wrong == [(cut_q, "witness does not disconnect the graph")]

    answers[cut_q] = type(cut)(cut.value, cut.side, frozenset(list(cut.cut_edges)[1:]))
    flagged = check_answers(workload.n, preload, result.ops, answers)
    assert [q for q, _ in flagged.wrong] == [cut_q]


def test_oracle_matches_exhaustive_cut():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(2, 9)
        adj = [set() for _ in range(n)]
        g = WeightedGraph(range(n))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    adj[u].add(v)
                    adj[v].add(u)
                    g.add_weight((u, v), 1)
        assert min_cut_value(adj) == brute_force_mincut(g).value, trial


def test_planted_generator_is_legal_and_seeded():
    def stream(seed):
        gen = PlantedCut(random.Random(seed), 12, 5, 8, 3)
        updates = gen.updates()
        return gen, gen.edges(), [next(updates) for _ in range(400)]

    gen, preload, events = stream(11)
    assert stream(11)[1:] == (preload, events)
    left = set(gen.clusters[0])
    graph = DynamicGraph(gen.n)
    for e in preload:
        graph.insert_edge(e)
    for kind, e in events:
        # DynamicGraph raises on a duplicate insert or a missing delete
        graph.insert_edge(e) if kind == "+" else graph.delete_edge(e)
        bridges = sum((u in left) != (v in left) for u, v in graph.edges())
        assert graph.min_degree() >= 5 > 3 >= bridges >= 1


def main() -> int:
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
