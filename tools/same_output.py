"""Check that `dyncut run` answers and reports alike at a parent revision.

Usage, from anywhere inside a dyncut checkout:

    python3 tools/same_output.py --parent REF

The change is this checkout's working tree; the parent is REF, extracted
with ``git archive`` into a temporary directory that is removed afterwards,
as ``tools/bench_pairs.py`` does. The streams are the ones CI's verify
steps use, except the n = 256 ones, each generated once by this checkout's
``dyncut gen``. Both sides then run

    python -m dyncut.cli run STREAM --mode M FLAGS

on every stream, in both modes, with each flag set of ``FLAG_SETS``. The
script prints one line per stream, mode and flag set, and exits non-zero
when a run fails, or when the two sides differ in stdout or in the
``# queue_length=``, ``# moves=`` and ``# completeness=`` lines of stderr.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# `dyncut gen` arguments of each stream, as CI's verify steps write them
STREAMS = {
    "dense32": "--model dense-regular -n 32 --degree 10 --steps 600 --query-every 10 --cut-queries",
    "dense16": "--model dense-regular -n 16 --degree 14 --steps 600 --query-every 5 --cut-queries",
    "dense3000": "--model dense-regular -n 32 --degree 10 --steps 3000 --query-every 10 --cut-queries",
    "window48": "--model sliding-window -n 48 --steps 1500 --seed 2 --query-every 10 --cut-queries",
    "erdos24": "--model erdos-insert-delete -n 24 --steps 600 --query-every 15 --cut-queries",
    "dense96": "--model dense-regular -n 96 --degree 24 --steps 2000 --query-every 40 --cut-queries",
}
MODES = ("packed", "direct")
FLAG_SETS = ("", "--cp 1 --copies 4", "--cp 1 --copies 4 --cb 0.0001")
COMPARED = ("# queue_length=", "# moves=", "# completeness=")


def dyncut(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "dyncut.cli", *args], env=env,
                          capture_output=True, text=True)


def run_side(tree: Path, stream: Path, mode: str, flags: str) -> tuple[str, list[str]]:
    """stdout and the compared stderr lines of one `dyncut run`."""
    proc = dyncut(tree, ["run", str(stream), "--mode", mode, *flags.split()])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"same_output: run {stream.name} --mode {mode} {flags}"
                         f" failed in {tree}")
    return proc.stdout, [line for line in proc.stderr.splitlines()
                         if line.startswith(COMPARED)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    args = parser.parse_args(argv)
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same_output_") as tmp:
        tree = Path(tmp) / "parent"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", "--format=tar", parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        for name, gen_args in STREAMS.items():
            stream = Path(tmp) / f"{name}.txt"
            gen = dyncut(ROOT, ["gen", *gen_args.split(), "-o", str(stream)])
            if gen.returncode != 0:
                sys.stderr.write(gen.stderr)
                raise SystemExit(f"same_output: gen {gen_args} failed")
            for mode in MODES:
                for flags in FLAG_SETS:
                    before = run_side(tree, stream, mode, flags)
                    after = run_side(ROOT, stream, mode, flags)
                    same = before == after
                    differ += not same
                    print(f"# {name} --mode {mode} {flags or '(no flags)'}:"
                          f" {'same' if same else 'DIFFERENT'}", flush=True)
                    if not same and before[1] != after[1]:
                        print(f"#   {parent}: {' '.join(before[1])}\n"
                              f"#   change: {' '.join(after[1])}")
    runs = len(STREAMS) * len(MODES) * len(FLAG_SETS)
    print(f"# {runs - differ}/{runs} runs alike at {parent} and in the working tree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
