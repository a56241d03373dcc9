"""dyncut benchmark: replay seeded update streams through ``dyncut.Engine``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planted-direct --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8 --trace 0

One process, one thread, one closed-loop caller: each event is sent only
after the previous call returned. ``--trace 0`` times the replay with no
instrumentation, scales each timing by a speed probe run between stretches
of the replay (see ``SpeedProbe``) and prints the end-to-end metrics;
``--trace 1`` replays
the same events twice, untraced and then with every layer's public calls
wrapped (see ``tracing.py``), and prints the per-layer metrics. Every query
answer is checked against the benchmark's own oracle outside the timed
region. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs each workload in its own process and prints a summary table.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_UPDATES = 1000  # at least ten samples beyond the printed update p99
MIN_QUERIES = 100  # enough samples for query_ms.p90
LIMIT_S = 60.0  # hard stop on the timed replay (scaled seconds), to end well inside 180 s
TRACE_SHARE = 1 / 3  # share of --seconds spent on the untraced replay of a traced run
TRACE_MIN_QUERIES = 10
BATCH = 256  # events drawn from the generator between timed stretches


def _import_dyncut() -> None:
    if not (SRC / "dyncut" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dyncut sources at {SRC}; run from a dyncut checkout")
    sys.path.insert(0, str(SRC))
    import dyncut

    if Path(dyncut.__file__).resolve().parent != SRC / "dyncut":
        sys.exit(f"perfbench: imported dyncut from {dyncut.__file__}, not {SRC}")


@dataclass
class Replay:
    ops: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    update_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    # the same timings scaled to the probe's reference speed (see SpeedProbe);
    # without a probe, scaled_wall_s is wall_s and the lists stay empty
    scaled_update_s: list = field(default_factory=list)
    scaled_query_s: list = field(default_factory=list)
    scaled_wall_s: float = 0.0


class SpeedProbe:
    """A fixed reference computation timed next to the engine's calls.

    A shared virtual machine with 2 vCPUs (Intel Xeon) can run a Python
    process at one of two speeds about 60% apart, switching every few
    seconds, so raw timings of the same work spread past any useful bound.
    The probe is the oracle's own Stoer-Wagner (no ``dyncut`` code) on a
    planted cut graph made from a fixed seed: dict- and list-bound Python
    like the engine's calls, so both slow down together. A timing scaled by
    ``REFERENCE_S / probe time`` reads as if the machine ran at the speed at
    which the probe takes ``REFERENCE_S``, about its fast speed. A change
    to ``dyncut`` leaves the probe as it is, so it moves the scaled timings
    as it moves the raw ones.
    """

    REFERENCE_S = 3.0e-3
    EVERY_S = 0.2  # replay seconds between probes

    def __init__(self) -> None:
        from oracle import stoer_wagner_value
        from workloads import PlantedCut

        gen = PlantedCut(random.Random(0), 24, 10, 14, 4)
        adj: list[set[int]] = [set() for _ in range(gen.n)]
        for u, v in gen.edges():
            adj[u].add(v)
            adj[v].add(u)
        self._run = lambda: stoer_wagner_value(adj)
        self.times: list[float] = []

    def __call__(self) -> float:
        """Probe seconds: the faster of two runs, with the collector held
        off so that its pauses over the engine's objects are not counted."""
        clock = time.perf_counter
        gc.disable()
        try:
            best = float("inf")
            for _ in range(2):
                start = clock()
                self._run()
                best = min(best, clock() - start)
        finally:
            gc.enable()
        self.times.append(best)
        return best


def replay(engine, events, done=None, observer=None, probe=None) -> Replay:
    """Send events to the engine one at a time and time each call.

    Events are pulled from the generator in batches outside the timed
    stretches, so generating them costs the replay nothing. ``done`` sees
    (replay seconds so far, updates, queries) after each call; ``observer``
    sees each event's kind before the call. With a ``probe``, the replay is
    cut into stretches of about ``SpeedProbe.EVERY_S`` with a probe between
    every two, each stretch's timings are also kept scaled by the mean of
    the probes on either side of it, and the seconds ``done`` sees are
    scaled ones: a run then replays the same events whatever the machine's
    speed. Probe time is not replay time.
    """
    out = Replay()
    insert, delete = engine.insert, engine.delete
    query_value, query_cut = engine.query_value, engine.query_cut
    ops, answers, update_s, query_s = out.ops, out.answers, out.update_s, out.query_s
    clock, cpu_clock = time.perf_counter, time.process_time
    before = probe() if probe is not None else SpeedProbe.REFERENCE_S
    finished = False
    while not finished:
        batch = list(islice(events, BATCH))
        if not batch:
            break
        i = 0
        while i < len(batch) and not finished:
            first_update, first_query = len(update_s), len(query_s)
            wall0, cpu0 = clock(), cpu_clock()
            for kind, edge in batch[i:]:
                i += 1
                if observer is not None:
                    observer(kind)
                start = clock()
                if kind == "+":
                    insert(edge)
                elif kind == "-":
                    delete(edge)
                elif kind == "?":
                    answers.append(query_value())
                else:
                    answers.append(query_cut())
                end = clock()
                (query_s if edge is None else update_s).append(end - start)
                ops.append((kind, edge))
                elapsed = out.scaled_wall_s + (end - wall0) * SpeedProbe.REFERENCE_S / before
                if done is not None and done(elapsed, len(update_s), len(query_s)):
                    finished = True
                    break
                if probe is not None and end - wall0 >= SpeedProbe.EVERY_S:
                    break
            wall, cpu = clock() - wall0, cpu_clock() - cpu0
            out.wall_s += wall
            out.cpu_s += cpu
            if probe is None:
                out.scaled_wall_s = out.wall_s
                continue
            after = probe()
            scale = SpeedProbe.REFERENCE_S / ((before + after) / 2)
            before = after
            out.scaled_wall_s += wall * scale
            out.scaled_update_s += [t * scale for t in update_s[first_update:]]
            out.scaled_query_s += [t * scale for t in query_s[first_query:]]
    return out


class GcPauses:
    """Collector pauses during a block, from ``gc.callbacks``. The
    collector stays on: users of the engine pay for its pauses too."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.total_s = 0.0
        self.longest_s = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        pause = time.perf_counter() - self._start
        self.collections[info["generation"]] += 1
        self.total_s += pause
        self.longest_s = max(self.longest_s, pause)

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def setup(workload, preload):
    """Build the engine and preload the initial graph; returns (engine, seconds)."""
    from dyncut import Engine, EngineConfig

    start = time.perf_counter()
    engine = Engine(workload.n, EngineConfig(report_edges=True, **workload.config))
    for e in preload:
        engine.insert(e)
    return engine, time.perf_counter() - start


def view_shape(engine) -> list[float]:
    """Mean centers/n per level. Engine has no public view of its instance
    grid, so this reads the grid and each instance's public ``centers``."""
    grid = engine._instances
    return [
        sum(len(row[level].centers) for row in grid) / (len(grid) * engine.n)
        for level in range(engine.levels)
    ]


def shape_line(engine, shape: list[float]) -> str:
    return "# view-shape copies={} levels={} centers/n=[{}] identity_levels={}".format(
        engine.copies, engine.levels, ",".join(f"{x:.3f}" for x in shape), sum(x == 1.0 for x in shape)
    )


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _verdict(check, label: str) -> str:
    rate = len(check.wrong) / check.queries if check.queries else 0.0
    lines = [
        f"# answers[{label}] queries={check.queries} wrong={len(check.wrong)} "
        f"wrong_answer_rate={rate:g} by_quotient={check.answers_by_quotient} "
        f"by_degree={check.queries - check.answers_by_quotient} "
        f"verdict={'PASS' if not check.wrong else 'FAIL'}"
    ]
    lines += [f"#   wrong answer at query {q}: {why}" for q, why in check.wrong[:10]]
    return "\n".join(lines)


GATED = ("setup_s", "ops_per_s", "update_us.p50", "update_us.mean")


def timings(setup_s: float, wall_s: float, update_s: list[float], query_s: list[float]) -> dict:
    """Timing metrics of one replay, name -> (value, unit)."""
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((len(update_s) + len(query_s)) / wall_s, "1/s"),
        "update_us.p50": (1e6 * statistics.median(update_s), "us"),
        "update_us.mean": (1e6 * statistics.fmean(update_s), "us"),
        "update_us.p95": (1e6 * percentile(update_s, 95), "us"),
        "update_us.p99": (1e6 * percentile(update_s, 99), "us"),
        "query_ms.p50": (1e3 * statistics.median(query_s), "ms"),
        "query_ms.mean": (1e3 * statistics.fmean(query_s), "ms"),
        "query_ms.p90": (1e3 * percentile(query_s, 90), "ms"),
    }


def run_untraced(workload, seed: int, seconds: int):
    from oracle import check_answers

    preload, events = workload.make(seed)
    probe = SpeedProbe()
    setup_s, scaled_setup_s = [], []
    for _ in range(SETUPS):
        engine = None
        gc.collect()
        before = probe()
        engine, took = setup(workload, preload)
        setup_s.append(took)
        scaled_setup_s.append(took * SpeedProbe.REFERENCE_S / ((before + probe()) / 2))
    shape = shape_line(engine, view_shape(engine))
    gc.collect()

    # Peak RSS is read once, at the first call after which both floors are
    # met: a fixed event of the seeded stream, so a faster engine that
    # replays more events in --seconds does not show more memory.
    rss_kb = []

    def done(elapsed, updates, queries):
        if elapsed >= LIMIT_S:
            return True
        if updates < MIN_UPDATES or queries < MIN_QUERIES:
            return False
        if not rss_kb:
            rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return elapsed >= seconds

    with GcPauses() as gc_pauses:
        result = replay(engine, events, done, probe=probe)
    if not rss_kb:  # the time limit came first
        rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    engine = None
    check = check_answers(workload.n, preload, result.ops, result.answers)
    scaled = timings(statistics.median(scaled_setup_s), result.scaled_wall_s, result.scaled_update_s, result.scaled_query_s)
    raw = timings(statistics.median(setup_s), result.wall_s, result.update_s, result.query_s)
    metrics = {key: scaled[key] for key in GATED}
    metrics["peak_rss_mb"] = (rss_kb[0] / 1024, "MB")
    probes = probe.times
    info = [
        f"# replay updates={len(result.update_s)} queries={len(result.query_s)} "
        f"wall_s={result.wall_s:.3f} cpu_s={result.cpu_s:.3f} setups={SETUPS}",
        f"# probe count={len(probes)} ms.min={1e3 * min(probes):.4g} ms.median={1e3 * statistics.median(probes):.4g} "
        f"ms.max={1e3 * max(probes):.4g} reference_ms={1e3 * SpeedProbe.REFERENCE_S:g}",
        # shown, not gated: see README.md on why these are not metrics
        "# scaled " + " ".join(f"{k}={v:.6g}" for k, (v, _) in scaled.items() if k not in GATED),
        "# unscaled " + " ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items()),
        f"# gc collections={gc_pauses.collections} pause_s={gc_pauses.total_s:.3f} "
        f"longest_pause_s={gc_pauses.longest_s:.3f}",
        shape,
        _verdict(check, "replay"),
    ]
    return metrics, info, len(result.ops), len(check.wrong)


def run_traced(workload, seed: int, seconds: int):
    from oracle import check_answers
    from tracing import Tracer, census

    preload, events = workload.make(seed)
    engine, _ = setup(workload, preload)
    gc.collect()

    def done(wall, updates, queries):
        return wall >= seconds * TRACE_SHARE and queries >= TRACE_MIN_QUERIES or wall >= LIMIT_S / 2

    plain = replay(engine, events, done)
    engine = None
    check = check_answers(workload.n, preload, plain.ops, plain.answers)

    gc.collect()
    engine, _ = setup(workload, preload)
    shape = view_shape(engine)
    info_shape = shape_line(engine, shape)
    gc.collect()
    tracer = Tracer(engine.graph)
    observer = census(engine, tracer, iter(check.min_degrees))
    with tracer:
        traced = replay(engine, iter(plain.ops), observer=observer)
    engine = None
    traced_check = check_answers(workload.n, preload, traced.ops, traced.answers)
    metrics = tracer.layer_metrics(
        plain.wall_s, traced.wall_s, len(plain.update_s), len(plain.query_s), check, shape
    )
    info = [
        f"# replay ops={len(plain.ops)} untraced_s={plain.wall_s:.3f} traced_s={traced.wall_s:.3f}",
        info_shape,
        _verdict(check, "untraced"),
        _verdict(traced_check, "traced"),
        *tracer.span_lines(),
    ]
    return metrics, info, 2 * len(plain.ops), len(check.wrong) + len(traced_check.wrong)


def run_one(name: str, seed: int, seconds: int, trace: int, workloads) -> int:
    workload = workloads[name]
    print(f"# workload={name} seed={seed} seconds={seconds} trace={trace} n={workload.n} config={workload.config}")
    runner = run_traced if trace else run_untraced
    metrics, info, attempted, failed = runner(workload, seed, seconds)
    for line in info:
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"# {key} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    status = 0
    rows = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            rows.append((name, None))
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, result))
    print("# summary")
    for name, result in rows:
        if result is None:
            print(f"#   {name}: FAILED TO RUN")
            continue
        verdict = "PASS" if result["correct"] else "FAIL"
        print(f"#   {name}: answers {verdict} ({result['failed']} wrong of {result['attempted']} ops)")
        for key, m in result["metrics"].items():
            print(f"#     {key} = {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _import_dyncut()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, args.trace, WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
