"""Command line driver: subcommands, exit codes, output contracts."""

from __future__ import annotations

from collections import deque

import pytest

from dyncut import CutResult, Engine
from dyncut.cli import main


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
    assert "# updates=5" in err
    assert "# queue_length=" in err
    assert "# completeness=" in err


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


def test_verify_brute_size_guard(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("n 30\n+ 0 1\n?\n")
    code, _, err = _run(capsys, "verify", str(path), "--oracle", "brute")
    assert code == 2
    assert "--oracle stoer" in err


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


def test_bench_emits_table(capsys):
    code, out, _ = _run(
        capsys, "bench", "--sizes", "16", "--reps", "1", "--steps", "120",
        "--mode", "direct", "--copies", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n mode")
    assert lines[1].startswith("16 direct")


@pytest.mark.parametrize("command", ["run", "verify", "bench"])
def test_bad_copies_exit_two(tmp_path, capsys, command):
    path = tmp_path / "c5.txt"
    path.write_text(_cycle_stream(5))
    argv = [command, "--copies", "-2"]
    if command == "bench":
        argv += ["--sizes", "8", "--reps", "1", "--steps", "10"]
    else:
        argv.append(str(path))
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert err == "dyncut: copies must be positive, got -2\n"


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


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run"])  # missing stream argument
    assert err.value.code == 2
