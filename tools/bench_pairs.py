"""Paired parent/change runs of the dyncut benchmark, written to one JSON file.

Usage, from anywhere inside a dyncut checkout:

    python3 tools/bench_pairs.py --parent REF --seeds 401-410 --label flat_view

The change is this checkout's working tree; the parent is REF, extracted
with ``git archive`` into a temporary directory that is removed afterwards,
so the repository's own metadata is never touched. For every seed and
every workload that ``BENCHMARK.json`` declares, both sides run

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

back to back, the parent first on even seeds and the change first on odd
ones. The result, ``BENCH_<label>.json`` in ``--out`` (by default the root
of the checkout), holds every run's end-to-end metrics and, per workload and
metric, each side's median and quartiles and the number of pairs the change
wins. Standard library only. The script exits non-zero when a run fails or
answers a query wrongly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """Seeds from a list of numbers and ranges: "401-410", "1,3,5-7"."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def hardware() -> str:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{os.cpu_count()}-vCPU {platform.system()} ({cpu or 'unknown CPU'}),"
            f" {platform.python_implementation()} {platform.python_version()};"
            " timings scaled by perfbench's speed probe")


def run_side(tree: Path, workload: str, seed: int, seconds: int,
             metrics: list[str]) -> dict:
    """One untraced benchmark run in tree; its last stdout line is JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {tree} printed nothing")
    out = json.loads(lines[-1])
    return {
        "correct": out["correct"] and proc.returncode == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m: out["metrics"][m] for m in metrics},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], workloads: list[str], metrics: list[dict]) -> dict:
    summary = {}
    for w in workloads:
        pairs = [r for r in runs if r["workload"] == w]
        entry = {
            "pairs": len(pairs),
            "correct": all(r[s]["correct"] for r in pairs for s in ("parent", "change")),
            "failed": {s: sum(r[s]["failed"] for r in pairs) for s in ("parent", "change")},
        }
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            value = {s: [r[s]["metrics"][name]["value"] for r in pairs]
                     for s in ("parent", "change")}
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(value["parent"], value["change"]))
            entry[name] = {
                "parent": quartiles(value["parent"]),
                "change": quartiles(value["change"]),
                "change_wins": wins,
                "better": m["better"],
            }
        summary[w] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--seeds", required=True, help='for example "401-410" or "1,2,5"')
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the output file")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    names = [m["name"] for m in metrics]
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tree = Path(tmp) / "parent"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", "--format=tar", parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        for seed in seeds:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for w in workloads:
                record = {"workload": w, "seed": seed, "first": order[0]}
                for side in order:
                    record[side] = run_side(tree if side == "parent" else ROOT,
                                            w, seed, args.seconds, names)
                runs.append(record)
                print(f"# {w} seed={seed} ops_per_s parent="
                      f"{record['parent']['metrics']['ops_per_s']['value']:.0f}"
                      f" change={record['change']['metrics']['ops_per_s']['value']:.0f}",
                      flush=True)

    result = {
        "what": args.what or f"Parent/change pairs of the benchmark ({args.label})",
        "command": f"python3 perfbench/run.py --workload W --seed S"
                   f" --seconds {args.seconds} --trace 0",
        "parent": parent,
        "seeds": seeds,
        "hardware": hardware(),
        "protocol": "for each seed and workload both sides run back to back, the"
                    " parent first on even seeds and the change first on odd seeds",
        "summary": summarize(runs, workloads, metrics),
        "runs": runs,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"# wrote {path}")
    ok = all(r[s]["correct"] for r in runs for s in ("parent", "change"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
