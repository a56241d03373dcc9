"""Command line front end: generate, run, verify, and benchmark streams."""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from .contraction import DEFAULT_BUDGET_COEFF, DEFAULT_CENTER_COEFF
from .engine import MODE_DIRECT, MODE_PACKED, Engine, EngineConfig
from .graph_core import WeightedGraph
from .mincut import BRUTE_FORCE_LIMIT, brute_force_mincut, stoer_wagner
from .streams import (
    DELETE,
    INSERT,
    MODELS,
    QUERY_CUT,
    QUERY_VALUE,
    StreamFormatError,
    UpdateStream,
    generate_stream,
    parse_stream,
    render_stream,
)

STOER_WAGNER_LIMIT = 64


def _read_stream(path: str) -> UpdateStream:
    if path == "-":
        return parse_stream(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return parse_stream(fh.read())


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        mode=args.mode,
        copies=args.copies,
        seed=args.seed,
        center_coeff=args.cp,
        budget_coeff=args.cb,
        report_edges=getattr(args, "report_edges", False),
    )


def _format_cut(value: int, edges) -> str:
    tokens = [f"{u}-{v}" for u, v in sorted(edges)]
    return " ".join([str(value), *tokens]) if tokens else str(value)


def cmd_gen(args: argparse.Namespace) -> int:
    stream = generate_stream(
        args.model,
        args.n,
        args.steps,
        args.seed,
        query_every=args.query_every,
        degree=args.degree,
        query_kind=QUERY_CUT if args.cut_queries else QUERY_VALUE,
    )
    text = render_stream(stream)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    stream = _read_stream(args.stream)
    config = _engine_config(args)
    if not config.report_edges and any(e.kind == QUERY_CUT for e in stream.events):
        config.report_edges = True
    engine = _new_engine(stream.n, config)
    started = time.perf_counter()
    for ev in stream.events:
        if ev.kind == INSERT:
            engine.insert(ev.edge)
        elif ev.kind == DELETE:
            engine.delete(ev.edge)
        elif ev.kind == QUERY_VALUE:
            print(engine.query_value())
        else:
            cut = engine.query_cut()
            print(_format_cut(cut.value, cut.cut_edges))
    elapsed = time.perf_counter() - started
    stats = engine.stats
    # timing lives on stderr so stdout stays byte-identical across runs
    print(f"# updates={stats.updates}", file=sys.stderr)
    print(f"# queries={stats.queries}", file=sys.stderr)
    print(f"# copies={engine.copies}", file=sys.stderr)
    print(f"# mode={config.mode}", file=sys.stderr)
    if stats.updates:
        print(f"# updates_per_s={stats.updates / elapsed:.1f}", file=sys.stderr)
    # the views' state at the end of the run
    print(f"# queue_length={engine.queue_length()}", file=sys.stderr)
    joined = ",".join(f"{r:.4f}" for r in engine.completeness())
    print(f"# completeness={joined}", file=sys.stderr)
    print(f"# elapsed_s={elapsed:.3f}", file=sys.stderr)
    return 0


class UsageError(Exception):
    pass


def _new_engine(n: int, config: EngineConfig) -> Engine:
    try:
        return Engine(n, config)
    except ValueError as exc:  # a bad engine flag, such as --copies 0 or --cb inf
        raise UsageError(str(exc)) from exc


def _oracle_for(name: str, n: int):
    if name == "brute" or (name == "auto" and n <= BRUTE_FORCE_LIMIT - 4):
        if n > BRUTE_FORCE_LIMIT:
            raise UsageError(
                f"brute oracle limited to {BRUTE_FORCE_LIMIT} vertices;"
                " rerun with --oracle stoer"
            )
        return brute_force_mincut
    if n > STOER_WAGNER_LIMIT:
        raise UsageError(
            f"verification oracle limited to {STOER_WAGNER_LIMIT} vertices"
        )
    return stoer_wagner


def _witness_problem(shadow: WeightedGraph, witness) -> str | None:
    """Why removing the witness edges fails to cut the shadow graph, if it does."""
    for e in sorted(witness):
        if shadow.weight(e) == 0:
            return f"witness edge {e[0]}-{e[1]} not in graph"
    adj: dict[int, list[int]] = {v: [] for v in shadow.vertices}
    for e, _ in shadow.edges():
        if e not in witness:
            adj[e[0]].append(e[1])
            adj[e[1]].append(e[0])
    root = min(adj)
    seen = {root}
    stack = [root]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) == len(adj):
        return "witness does not disconnect the graph"
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    stream = _read_stream(args.stream)
    oracle = _oracle_for(args.oracle, stream.n)
    config = _engine_config(args)
    config.report_edges = True
    engine = _new_engine(stream.n, config)
    shadow = WeightedGraph(range(stream.n))
    checked = 0
    failures = 0
    for ev in stream.events:
        if ev.kind == INSERT:
            engine.insert(ev.edge)
            shadow.add_weight(ev.edge, 1)
        elif ev.kind == DELETE:
            engine.delete(ev.edge)
            shadow.add_weight(ev.edge, -1)
        else:
            expected = oracle(shadow).value
            checked += 1
            if ev.kind == QUERY_VALUE:
                got = engine.query_value()
                ok = got == expected
                detail = f"value {got}"
            else:
                cut = engine.query_cut()
                count_ok = len(cut.cut_edges) == cut.value
                ok = cut.value == expected and count_ok
                detail = f"value {cut.value} edges {len(cut.cut_edges)}"
                if ok:
                    problem = _witness_problem(shadow, cut.cut_edges)
                    if problem:
                        ok = False
                        detail += f", {problem}"
            if not ok:
                failures += 1
                print(
                    f"MISMATCH at query {checked}: expected {expected}, got {detail}",
                    file=sys.stderr,
                )
    print(f"checked {checked} queries, {failures} mismatches")
    return 1 if failures else 0


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",")]
    print("n mode mean_update_us median_update_us mean_query_ms")
    for n in sizes:
        update_times: list[float] = []
        query_times: list[float] = []
        for rep in range(args.reps):
            stream = generate_stream(
                args.model,
                n,
                args.steps,
                args.seed + rep,
                query_every=args.query_every,
                degree=args.degree,
            )
            config = EngineConfig(mode=args.mode, copies=args.copies, seed=args.seed)
            engine = _new_engine(n, config)
            for ev in stream.events:
                t0 = time.perf_counter()
                if ev.kind == INSERT:
                    engine.insert(ev.edge)
                elif ev.kind == DELETE:
                    engine.delete(ev.edge)
                else:
                    engine.query_value()
                t1 = time.perf_counter()
                if ev.kind in (INSERT, DELETE):
                    update_times.append(t1 - t0)
                else:
                    query_times.append(t1 - t0)
        mean_u = statistics.mean(update_times) * 1e6
        med_u = statistics.median(update_times) * 1e6
        mean_q = statistics.mean(query_times) * 1e3 if query_times else 0.0
        print(f"{n} {args.mode} {mean_u:.1f} {med_u:.1f} {mean_q:.2f}")
    return 0


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=(MODE_PACKED, MODE_DIRECT),
                        default=MODE_PACKED)
    parser.add_argument("--copies", type=int, default=None,
                        help="independent sampler copies (default: 5*log2 n)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cp", type=float, default=DEFAULT_CENTER_COEFF,
                        help="center sampling coefficient")
    parser.add_argument("--cb", type=float, default=DEFAULT_BUDGET_COEFF,
                        help="relabel budget coefficient")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncut",
        description="maintain the global minimum cut of a graph under edge updates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an update stream")
    gen.add_argument("--model", choices=MODELS, default="erdos-insert-delete")
    gen.add_argument("-n", "--n", type=int, required=True)
    gen.add_argument("--steps", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--query-every", type=int, default=0)
    gen.add_argument("--degree", type=int, default=None,
                     help="degree floor for the dense-regular model")
    gen.add_argument("--cut-queries", action="store_true",
                     help="emit cut-edge queries instead of value queries")
    gen.add_argument("-o", "--output", default="-")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="answer the queries in a stream")
    run.add_argument("stream", help="stream file, or - for stdin")
    _add_engine_flags(run)
    run.add_argument("--report-edges", action="store_true")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="replay a stream against a static oracle")
    verify.add_argument("stream")
    _add_engine_flags(verify)
    verify.add_argument("--oracle", choices=("auto", "brute", "stoer"),
                        default="auto")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="time updates and queries across sizes")
    bench.add_argument("--sizes", default="64,128,256")
    bench.add_argument("--mode", choices=(MODE_PACKED, MODE_DIRECT),
                       default=MODE_DIRECT)
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--model", choices=MODELS, default="dense-regular")
    bench.add_argument("--degree", type=int, default=None)
    bench.add_argument("--steps", type=int, default=2000)
    bench.add_argument("--query-every", type=int, default=100)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--copies", type=int, default=None)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StreamFormatError, UsageError) as exc:
        print(f"dyncut: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
