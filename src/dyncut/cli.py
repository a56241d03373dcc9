"""Command line front end: generate, run (and time), and verify streams."""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

from .contraction import DEFAULT_BUDGET_COEFF, DEFAULT_CENTER_COEFF
from .engine import MODE_DIRECT, MODE_PACKED, Engine, EngineConfig
from .graph_core import GraphError, WeightedGraph
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
        report_edges=True,
    )


def _format_cut(value: int, edges) -> str:
    tokens = [f"{u}-{v}" for u, v in sorted(edges)]
    return " ".join([str(value), *tokens]) if tokens else str(value)


def _update(engine: Engine, stream: UpdateStream, i: int) -> None:
    """Apply the stream's i-th event, an update, naming its line if illegal."""
    ev = stream.events[i]
    try:
        engine.update(ev.edge, 1 if ev.kind == INSERT else -1)
    except GraphError as exc:  # a duplicate insert or a missing delete
        raise StreamFormatError(stream.lines[i], str(exc)) from None


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        stream = generate_stream(
            args.model, args.n, args.steps, args.seed,
            query_every=args.query_every, degree=args.degree,
            query_kind=QUERY_CUT if args.cut_queries else QUERY_VALUE)
    except ValueError as exc:  # a generator flag generate_stream rejects
        raise UsageError(str(exc)) from None
    text = render_stream(stream)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    stream = _read_stream(args.stream)
    engine = _new_engine(stream.n, _engine_config(args))
    # seconds per engine call; printing an answer is not timed
    update_s: list[float] = []
    query_s: list[float] = []
    started = time.perf_counter()
    for i, ev in enumerate(stream.events):
        t0 = time.perf_counter()
        if ev.kind in (INSERT, DELETE):
            _update(engine, stream, i)
            update_s.append(time.perf_counter() - t0)
        elif ev.kind == QUERY_VALUE:
            value = engine.query_value()
            query_s.append(time.perf_counter() - t0)
            print(value)
        else:
            cut = engine.query_cut()
            query_s.append(time.perf_counter() - t0)
            print(_format_cut(cut.value, cut.cut_edges))
    elapsed = time.perf_counter() - started
    # timing lives on stderr so stdout stays byte-identical across runs
    print(f"# updates={len(update_s)}", file=sys.stderr)
    print(f"# queries={len(query_s)}", file=sys.stderr)
    print(f"# copies={engine.copies}", file=sys.stderr)
    print(f"# mode={engine.config.mode}", file=sys.stderr)
    if update_s:
        print(f"# update_us_mean={statistics.mean(update_s) * 1e6:.1f}",
              file=sys.stderr)
        print(f"# update_us_p50={statistics.median(update_s) * 1e6:.1f}",
              file=sys.stderr)
    if query_s:
        print(f"# query_ms_mean={statistics.mean(query_s) * 1e3:.2f}",
              file=sys.stderr)
    # the views' state at the end of the run
    print(f"# queue_length={engine.queue_length()}", file=sys.stderr)
    print(f"# moves={engine.moves()}", file=sys.stderr)
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
    if n < 2:  # neither oracle has a cut to check on one vertex
        raise UsageError(f"verify needs at least two vertices, got {n}")
    if name == "brute" or (name == "auto" and n <= BRUTE_FORCE_LIMIT - 4):
        if n > BRUTE_FORCE_LIMIT:
            raise UsageError(
                f"brute oracle limited to {BRUTE_FORCE_LIMIT} vertices;"
                " rerun with --oracle stoer"
            )
        return brute_force_mincut
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
    engine = _new_engine(stream.n, _engine_config(args))
    shadow = WeightedGraph(range(stream.n))
    checked = 0
    failures = 0
    for i, ev in enumerate(stream.events):
        if ev.kind in (INSERT, DELETE):
            _update(engine, stream, i)
            shadow.add_weight(ev.edge, 1 if ev.kind == INSERT else -1)
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
            try:
                engine.audit()
            except AssertionError as exc:
                failures += ok  # a query that already mismatched counts once
                print(f"AUDIT FAILED at query {checked}: {exc}", file=sys.stderr)
    print(f"checked {checked} queries, {failures} mismatches")
    return 1 if failures else 0


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=(MODE_PACKED, MODE_DIRECT),
                        default=MODE_PACKED)
    parser.add_argument("--copies", type=int, default=None,
                        help="independent sampler copies (default: 5*log2 n)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cp", type=float, default=DEFAULT_CENTER_COEFF,
                        help="center sampling coefficient")
    parser.add_argument("--cb", type=float, default=DEFAULT_BUDGET_COEFF,
                        help="relabel budget coefficient, in either mode")


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
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="replay a stream against a static oracle")
    verify.add_argument("stream")
    _add_engine_flags(verify)
    verify.add_argument("--oracle", choices=("auto", "brute", "stoer"),
                        default="auto",
                        help="brute enumerates every bipartition (at most"
                        f" {BRUTE_FORCE_LIMIT} vertices) and checks the engine"
                        " independently; stoer is the engine's own static cut,"
                        " so it checks the views but not that cut; auto picks"
                        f" brute up to {BRUTE_FORCE_LIMIT - 4} vertices"
                        " (default: auto)")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (StreamFormatError, UsageError) as exc:
        print(f"dyncut: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`dyncut run ... | head`); point
        # stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
