"""Engine.audit and the audits under it catch each kind of broken state.

Each test builds a small engine whose contracting views hold undrained
relabel queues, corrupts exactly one field (of a contracting view's packing
for the packing and forest checks), and expects the audit to name the check
that field breaks. An audit that checked nothing would pass the sound
engine and fail every one of these.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dyncut import (
    MODE_DIRECT,
    MODE_PACKED,
    DynamicGraph,
    Engine,
    EngineConfig,
    generate_stream,
)
from dyncut.cli import main
from dyncut.streams import DELETE, INSERT

MODES = (MODE_PACKED, MODE_DIRECT)
SRC = Path(__file__).resolve().parents[1] / "src"


def _engine(mode: str):
    """An n = 32 engine at center_coeff 1 and a budget of one edge move per
    update, after 600 steps of a degree-10 stream, with a contracting view
    that holds a quotient edge and a non-center that has a representative."""
    eng = Engine(32, EngineConfig(mode=mode, copies=2, seed=3, center_coeff=1.0,
                                  budget_coeff=1e-4))
    for ev in generate_stream("dense-regular", 32, 600, 0, degree=10).events:
        if ev.kind in (INSERT, DELETE):
            eng.update(ev.edge, 1 if ev.kind == INSERT else -1)
    assert eng.queue_length() > 0
    eng.audit()  # the sound engine passes
    view = next(inst for inst in eng._views if len(inst.centers) < eng.n)
    return eng, view


def _quotient_edge(view):
    return next(c for c, _ in view.contracted_graph().edges())


def _corrupt_rep(eng, view):
    v = next(v for v in range(eng.n)
             if v not in view.centers and view.representative(v) is not None)
    view._rep[v] = next(c for c in sorted(view.centers) if c != view._rep[v])


def _corrupt_samples(eng, view):
    # the sampler misses an insert: a non-center's set lacks one of its
    # center neighbors, though not the one it samples
    sampler = view._sampler
    v = next(v for v in range(eng.n) if len(sampler.members(v) or ()) > 1)
    sampler.remove(v, next(c for c in sampler.members(v) if c != view.representative(v)))


def _corrupt_queue(eng, view):
    dead = next((u, v) for u in range(eng.n) for v in range(u + 1, eng.n)
                if v not in eng.graph.neighbors(u))
    view._queue[dead] = (None, None)


def _corrupt_queue_order(eng, view):
    # a live edge queued under its reversed key, with its counted pair
    u, v = next(f for f in eng.graph.edges() if f not in view._queue)
    view._queue[(v, u)] = (view.representative(v), view.representative(u))


def _corrupt_quotient(eng, view):
    view.contracted_graph().add_weight(_quotient_edge(view), 1)


def _corrupt_unmapped(eng, view):
    view._unmapped += 1


def _corrupt_view_graph(eng, view):
    view.graph = DynamicGraph(eng.n)


def _corrupt_adjacency(eng, view):
    u = next(u for u in range(eng.n) if eng.graph.degree(u))
    eng.graph._adj[u].discard(next(iter(eng.graph._adj[u])))


def _corrupt_count(eng, view):
    eng.graph._count[eng.graph.min_degree() + 1] += 1


def _corrupt_min(eng, view):
    eng.graph._min += 1


def _corrupt_edge_count(eng, view):
    eng.graph._edge_count += 1


# (the check each corruption breaks, the corruption)
CORRUPTIONS = [
    ("samples", _corrupt_samples),
    ("rep table", _corrupt_rep),
    ("queue", _corrupt_queue),
    ("queue", _corrupt_queue_order),
    ("quotient", _corrupt_quotient),
    ("unmapped", _corrupt_unmapped),
    ("views", _corrupt_view_graph),
    ("adjacency", _corrupt_adjacency),
    ("degree counts", _corrupt_count),
    ("minimum degree", _corrupt_min),
    ("edge count", _corrupt_edge_count),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("check,corrupt", CORRUPTIONS,
                         ids=[c.__name__[len("_corrupt_"):] for _, c in CORRUPTIONS])
def test_audit_names_the_broken_check(mode, check, corrupt):
    eng, view = _engine(mode)
    corrupt(eng, view)
    with pytest.raises(AssertionError, match=f"^{check}: "):
        eng.audit()


def _used_edge(packing):
    return next(e for e, used in sorted(packing._usage.items()) if used)


def _corrupt_labels(packing):
    forest = packing._levels[0]
    forest._size[forest._label[0]] += 1


def _corrupt_spare(packing):
    forest = packing._levels[-1]
    u, v = next((u, v) for u in range(forest.n) for v in range(u + 1, forest.n)
                if not forest.connected(u, v))
    forest._spare[u][v] = forest._spare[v][u] = None


def _corrupt_weights(packing):
    dict.__setitem__(packing.weights, _used_edge(packing), 0)


def _corrupt_usage(packing):
    packing._usage[_used_edge(packing)].add(packing.depth)


def _corrupt_forest(packing):
    used = packing._usage[_used_edge(packing)]
    used.discard(min(used))


def _corrupt_maximal(packing):
    # one more copy of an edge whose copies are all used is live at every
    # level, the last of which leaves its endpoints apart
    last = packing._levels[-1]
    e, w = next((e, w) for e, w in sorted(packing.weights.items())
                if len(packing.used_levels(e)) == w and not last.connected(*e))
    dict.__setitem__(packing.weights, e, w + 1)


def _corrupt_union(packing):
    packing.union_graph(1).add_weight(_used_edge(packing), 1)


# (the check each corruption of a packing or its forests breaks, the corruption)
PACKING_CORRUPTIONS = [
    ("labels", _corrupt_labels),
    ("spare", _corrupt_spare),
    ("weights", _corrupt_weights),
    ("usage", _corrupt_usage),
    ("forest", _corrupt_forest),
    ("maximal", _corrupt_maximal),
    ("union", _corrupt_union),
]


@pytest.mark.parametrize("check,corrupt", PACKING_CORRUPTIONS,
                         ids=[check for check, _ in PACKING_CORRUPTIONS])
def test_packed_audit_names_the_broken_check(check, corrupt):
    eng, view = _engine(MODE_PACKED)
    corrupt(eng._views[view])
    with pytest.raises(AssertionError, match=f"^{check}: "):
        eng.audit()


def test_verify_reports_a_broken_packing(tmp_path, capsys, monkeypatch):
    # the answer is right, but the query leaves the identity view's packing
    # with a wrong component size, which only the audit can see
    path = tmp_path / "triangle.txt"
    path.write_text("n 3\n+ 0 1\n+ 1 2\n+ 0 2\n?\n")
    answer = Engine.query_value

    def answer_then_corrupt(self):
        value = answer(self)
        _corrupt_labels(next(iter(self._views.values())))
        return value

    monkeypatch.setattr(Engine, "query_value", answer_then_corrupt)
    code = main(["verify", str(path), "--mode", "packed", "--copies", "2"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "checked 1 queries, 1 mismatches" in out
    assert "AUDIT FAILED at query 1: labels: " in err


def test_audit_survives_optimized_python():
    # python -O strips assert statements; the audits raise explicitly
    script = (
        "from dyncut import Engine\n"
        "eng = Engine(4)\n"
        "eng.insert((0, 1))\n"
        "eng.graph._min = 3\n"
        "try:\n"
        "    eng.audit()\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("minimum degree: held as 3")
