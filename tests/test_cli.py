"""Command line driver: subcommands, exit codes, output contracts."""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

import dyncut.cli
import dyncut.engine
from dyncut import CutResult, Engine
from dyncut.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cycle_stream(n: int, tail: str = "?\n") -> str:
    lines = [f"n {n}"]
    lines += [f"+ {v} {(v + 1) % n}".replace(f"+ {n - 1} 0", f"+ 0 {n - 1}")
              for v in range(n)]
    return "\n".join(lines) + "\n" + tail


def test_gen_header_only(tmp_path, capsys):
    code, out, _ = _run(capsys, "gen", "--n", "8", "--steps", "0")
    assert code == 0
    assert out == "n 8\n"


def test_gen_deterministic(tmp_path, capsys):
    args = ("gen", "--n", "16", "--steps", "100", "--seed", "7")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_run_cycle_value(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text(_cycle_stream(5))
    code, out, err = _run(capsys, "run", str(path), "--copies", "4")
    assert code == 0
    assert out == "2\n"
    lines = err.splitlines()
    assert "# updates=5" in lines
    assert "# queries=1" in lines
    # each engine call is timed, not the printing; no rate is read off a
    # wall time that holds both
    for key, decimals in (("update_us_mean", 1), ("update_us_p50", 1),
                          ("query_ms_mean", 2)):
        [line] = [x for x in lines if x.startswith(f"# {key}=")]
        assert re.fullmatch(rf"# {key}=\d+\.\d{{{decimals}}}", line)
    assert "# updates_per_s=" not in err
    assert "# queue_length=" in err
    assert "# completeness=" in err
    # every view of this run is the identity, which never relabels
    assert "# moves=0" in lines


def test_run_reads_stdin(tmp_path, capsys, monkeypatch):
    # `dyncut run -` answers the same stream from stdin as from a file
    path = tmp_path / "s.txt"
    _run(capsys, "gen", "--n", "10", "--steps", "60", "--seed", "3",
         "--query-every", "6", "--cut-queries", "-o", str(path))
    _, from_file, _ = _run(capsys, "run", str(path), "--copies", "4")
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    code, from_stdin, _ = _run(capsys, "run", "-", "--copies", "4")
    assert code == 0
    assert from_stdin == from_file
    assert from_file.count("\n") == 10


def test_run_identical_stdout(tmp_path, capsys):
    path = tmp_path / "s.txt"
    _run(capsys, "gen", "--n", "10", "--steps", "60", "--seed", "3",
         "--query-every", "6", "-o", str(path))
    args = ("run", str(path), "--copies", "4", "--seed", "9")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def _parse_cut_line(line: str) -> tuple[int, set]:
    tokens = line.split()
    value = int(tokens[0])
    edges = {tuple(map(int, t.split("-"))) for t in tokens[1:]}
    return value, edges


def test_run_reports_disconnecting_cut(tmp_path, capsys):
    n = 5
    lines = [f"n {n}"]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    lines += [f"+ {u} {v}" for u, v in edges]
    lines.append("?e")
    path = tmp_path / "k5.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = _run(capsys, "run", str(path), "--copies", "4")
    assert code == 0
    value, cut = _parse_cut_line(out.strip())
    assert value == 4
    assert len(cut) == 4
    live = [e for e in edges if e not in cut]
    adj = [[] for _ in range(n)]
    for u, v in live:
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
    assert len(seen) < n


def test_run_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("n 4\n+ 0 9\n")
    code, _, err = _run(capsys, "run", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize(
    ("update", "message"),
    [("+ 0 1", "edge (0, 1) already present"), ("- 2 3", "edge (2, 3) not present")],
    ids=["duplicate-insert", "missing-delete"],
)
def test_illegal_update_names_its_line(tmp_path, capsys, command, update, message):
    # the line counts the blank one, so it is the source line, not the event
    path = tmp_path / "bad.txt"
    path.write_text(f"n 4\n+ 0 1\n?\n\n{update}\n?\n")
    code, _, err = _run(capsys, command, str(path), "--copies", "4")
    assert code == 2
    assert err == f"dyncut: line 5: {message}\n"


def test_verify_agrees(tmp_path, capsys):
    path = tmp_path / "v.txt"
    _run(capsys, "gen", "--n", "12", "--steps", "80", "--seed", "5",
         "--query-every", "8", "-o", str(path))
    code, out, _ = _run(capsys, "verify", str(path), "--copies", "8")
    assert code == 0
    assert "checked 10 queries, 0 mismatches" in out


def test_verify_header_only_passes(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("n 4\n")
    code, out, _ = _run(capsys, "verify", str(path))
    assert code == 0
    assert "checked 0 queries" in out


def test_verify_one_vertex_exit_two(tmp_path, capsys):
    # no oracle has a cut to check on one vertex
    path = tmp_path / "one.txt"
    path.write_text("n 1\n?\n")
    code, out, err = _run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("dyncut: ") and "two vertices" in err


def test_verify_disconnected_graph_above_enumeration_size(tmp_path, capsys):
    # 70 vertices and one edge: the reference oracle answers 0, as the engine does
    path = tmp_path / "wide.txt"
    path.write_text("n 70\n+ 0 1\n?\n")
    code, out, _ = _run(capsys, "verify", str(path))
    assert code == 0
    assert "checked 1 queries, 0 mismatches" in out


@pytest.mark.parametrize("mode", ["packed", "direct"])
def test_verify_catches_a_fault_in_the_static_cut(tmp_path, capsys, monkeypatch,
                                                  mode):
    # two K10s joined by two edges: the minimum cut, 2, lies below the
    # minimum degree, 9, so the engine's answer is its static cut's; above
    # 16 vertices the oracle must not share that cut, or the fault passes
    lines = ["n 20"]
    lines += [f"+ {u} {v}" for base in (0, 10)
              for u in range(base, base + 10) for v in range(u + 1, base + 10)]
    lines += ["+ 0 10", "+ 5 15", "?"]
    path = tmp_path / "two_k10.txt"
    path.write_text("\n".join(lines) + "\n")
    static_cut = dyncut.engine.stoer_wagner

    def one_too_many(g):
        cut = static_cut(g)
        return CutResult(cut.value + 1, cut.side, cut.cut_edges)

    monkeypatch.setattr(dyncut.engine, "stoer_wagner", one_too_many)
    monkeypatch.setattr(dyncut.cli, "stoer_wagner", one_too_many, raising=False)
    code, out, err = _run(capsys, "verify", str(path), "--mode", mode)
    assert code == 1
    assert "checked 1 queries, 1 mismatches" in out
    assert "MISMATCH at query 1: expected 2, got value 3" in err


def test_verify_cut_queries(tmp_path, capsys):
    path = tmp_path / "q.txt"
    _run(capsys, "gen", "--n", "10", "--steps", "60", "--seed", "4",
         "--query-every", "10", "--cut-queries", "-o", str(path))
    code, out, _ = _run(capsys, "verify", str(path), "--copies", "6")
    assert code == 0
    assert "0 mismatches" in out


@pytest.mark.parametrize(
    "witness",
    [
        {(0, 1), (0, 2), (1, 2)},  # real edges whose removal leaves it connected
        {(0, 1), (0, 2), (0, 4)},  # vertex 0's star with one edge the graph lacks
    ],
    ids=["connected-rest", "absent-edge"],
)
def test_verify_rejects_witness_that_does_not_cut(tmp_path, capsys, monkeypatch,
                                                   witness):
    # K5 minus the edge 0-4: minimum cut 3, so a wrong witness of the right
    # size passes the value and edge-count checks
    lines = ["n 5"]
    lines += [f"+ {u} {v}" for u in range(4) for v in range(u + 1, 4)]
    lines += ["+ 1 4", "+ 2 4", "+ 3 4", "?e"]
    path = tmp_path / "k4.txt"
    path.write_text("\n".join(lines) + "\n")

    def wrong_cut(self):
        return CutResult(3, frozenset({0}), frozenset(witness))

    monkeypatch.setattr(Engine, "query_cut", wrong_cut)
    code, out, err = _run(capsys, "verify", str(path), "--copies", "2")
    assert code == 1
    assert "checked 1 queries, 1 mismatches" in out
    assert "MISMATCH at query 1: expected 3" in err


def test_verify_audits_after_each_query(tmp_path, capsys, monkeypatch):
    # the answer is right, but the query leaves one view's unmapped counter
    # off by one, which only the audit after the oracle check can see
    path = tmp_path / "cycle.txt"
    path.write_text(_cycle_stream(6))
    answer = Engine.query_value

    def answer_then_corrupt(self):
        value = answer(self)
        next(iter(self._views))._unmapped += 1
        return value

    monkeypatch.setattr(Engine, "query_value", answer_then_corrupt)
    code, out, err = _run(capsys, "verify", str(path), "--copies", "2")
    assert code == 1
    assert "checked 1 queries, 1 mismatches" in out
    assert "MISMATCH" not in err
    assert "AUDIT FAILED at query 1: unmapped: counted as 1," in err


def test_run_into_reader_that_closes_early(tmp_path):
    # 120 kB of answers outgrow the pipe's buffer, so the run is still
    # writing after the reader has taken one line and closed its end
    path = tmp_path / "many.txt"
    path.write_text("n 2\n+ 0 1\n" + "?e\n" * 20000)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "dyncut.cli", "run", str(path), "--copies", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"1 0-1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err
    assert b"BrokenPipeError" not in err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_bad_copies_exit_two(tmp_path, capsys, command):
    path = tmp_path / "c5.txt"
    path.write_text(_cycle_stream(5))
    code, out, err = _run(capsys, command, "--copies", "-2", str(path))
    assert code == 2
    assert out == ""
    assert err == "dyncut: copies must be positive, got -2\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["gen", "-n", "1", "--steps", "5"],
         "streams need at least two vertices, got 1"),
        (["gen", "-n", "8", "--steps", "-3"], "steps must be at least 0, got -3"),
        (["gen", "-n", "8", "--steps", "5", "--query-every", "-1"],
         "query_every must be at least 0, got -1"),
        (["gen", "--model", "dense-regular", "-n", "8", "--steps", "40",
          "--degree", "9"], "degree must be in 1..6, got 9"),
        (["gen", "--model", "dense-regular", "-n", "8", "--steps", "40",
          "--degree", "7"], "degree must be in 1..6, got 7"),
        # the default degree max(2, n // 4) is n - 1 at n = 3
        (["gen", "--model", "dense-regular", "-n", "3", "--steps", "12"],
         "degree must be in 1..1, got the default 2 at n = 3"),
        # only dense-regular reads a degree; the other models would ignore it
        (["gen", "-n", "10", "--steps", "20", "--degree", "5"],
         "degree applies to the dense-regular model only"),
    ],
    ids=["gen-n1", "gen-negative-steps", "gen-negative-query-every",
         "gen-degree-above-n", "gen-degree-complete", "gen-default-degree-n3",
         "gen-degree-erdos"],
)
def test_bad_stream_flags_exit_two(capsys, argv, message):
    # rejected before any output, not with a traceback and exit status 1
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"dyncut: {message}\n"


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    ("cp", "mode", "extra", "views"),
    [("1", "packed", [], []), ("1", "direct", [], []),
     ("800", "packed", [], []), ("800", "direct", [], []),
     # a budget of one edge move per update leaves the relabel queues
     # undrained in either mode, yet answers and witnesses match the full
     # drain's; both modes hold the same views, so the same queues
     *[("1", mode, ["--cb", "0.0001"],
        ["# queue_length=86",
         "# completeness=1.0000,1.0000,1.0000,0.7500,0.0000"])
       for mode in ("direct", "packed")]],
    ids=["1-packed", "1-direct", "800-packed", "800-direct", "1-direct-cb0.0001",
         "1-packed-cb0.0001"],
)
def test_run_witnesses_match_recorded_output(capsys, cp, mode, extra, views):
    # dense32.txt is `dyncut gen --model dense-regular -n 32 --degree 10
    # --steps 600 --query-every 10 --cut-queries`; the expected stdout and
    # views lines were recorded with the same run flags, and at --cp 1 its
    # query level contracts
    code, out, err = _run(capsys, "run", str(DATA / "dense32.txt"), "--copies", "4",
                          "--seed", "3", "--cp", cp, "--mode", mode, *extra)
    assert code == 0
    assert out == (DATA / f"dense32_{mode}_cp{cp}.out").read_text()
    for line in views:
        assert line in err.splitlines()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_non_finite_budget_exit_two(tmp_path, capsys, command):
    # rejected before the first update instead of raising inside one
    path = tmp_path / "c5.txt"
    path.write_text(_cycle_stream(5))
    code, out, err = _run(capsys, command, str(path), "--mode", "direct",
                          "--cb", "inf")
    assert code == 2
    assert out == ""
    assert err == "dyncut: budget_coeff must be finite and positive, got inf\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["run", "{missing}"], "No such file or directory"),
        (["verify", "{missing}"], "No such file or directory"),
        (["gen", "-n", "5", "--steps", "3", "-o", "{missing}/x.txt"],
         "No such file or directory"),
        (["run", "{binary}"], "'utf-8' codec can't decode byte 0xff"),
        (["verify", "{binary}"], "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["run-missing", "verify-missing", "gen-missing-dir", "run-not-utf8",
         "verify-not-utf8"],
)
def test_unreadable_file_exit_two(tmp_path, capsys, argv, message):
    # status 1 means a wrong answer, so a file that cannot be read or
    # written is reported as a usage error instead of with a traceback
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"n 2\n+ 0 1\xff\n")
    paths = {"missing": tmp_path / "missing", "binary": binary}
    code, out, err = _run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("dyncut: ") and message in err
    assert err.count("\n") == 1


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run"])  # missing stream argument
    assert err.value.code == 2
