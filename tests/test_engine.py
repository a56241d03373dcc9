"""Engine behavior: query paths, safety, cut reporting, determinism."""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations

import pytest

import dyncut.engine as engine_module
from dyncut import (
    MODE_DIRECT,
    MODE_PACKED,
    DuplicateEdgeError,
    DynamicGraph,
    Engine,
    EngineConfig,
    MissingEdgeError,
    WeightedGraph,
    brute_force_mincut,
    edge_key,
)
from dyncut.contraction import StarInstance

MODES = (MODE_PACKED, MODE_DIRECT)


def _cfg(mode, **kw) -> EngineConfig:
    kw.setdefault("copies", 4)
    kw.setdefault("seed", 1)
    return EngineConfig(mode=mode, **kw)


def _fill(engine: Engine, edges) -> None:
    for e in edges:
        engine.insert(edge_key(*e))


def _cycle(n):
    return [(v, (v + 1) % n) for v in range(n)]


def _is_disconnected(n: int, edges: set, removed: frozenset) -> bool:
    adj = [[] for _ in range(n)]
    live = [e for e in edges if e not in removed]
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
    return len(seen) < n


@pytest.mark.parametrize("mode", MODES)
def test_cycle_value_two(mode):
    eng = Engine(5, _cfg(mode))
    _fill(eng, _cycle(5))
    assert eng.query_value() == 2


@pytest.mark.parametrize("mode", MODES)
def test_complete_graph_value(mode):
    eng = Engine(5, _cfg(mode))
    _fill(eng, combinations(range(5), 2))
    assert eng.query_value() == 4


@pytest.mark.parametrize("mode", MODES)
def test_empty_and_isolated_zero(mode):
    eng = Engine(6, _cfg(mode, report_edges=True))
    assert eng.query_value() == 0
    cut = eng.query_cut()
    assert cut.value == 0
    assert cut.cut_edges == frozenset()
    _fill(eng, [(0, 1), (1, 2)])
    assert eng.query_value() == 0  # vertices 3..5 still isolated


def test_cycle_insertion_keeps_instances_complete():
    # default coefficient pins every vertex as a center at this scale
    eng = Engine(8, _cfg(MODE_PACKED))
    _fill(eng, _cycle(8))
    assert eng.graph.min_degree() == 2
    for row in eng._instances:
        assert all(inst.is_complete() for inst in row)
    assert all(rate == 1.0 for rate in eng.completeness())


def test_delete_last_edge_drops_min_degree():
    eng = Engine(4, _cfg(MODE_DIRECT))
    eng.insert((0, 1))
    eng.delete((0, 1))
    assert eng.graph.min_degree() == 0
    assert eng.query_value() == 0


def test_identity_packing_preserves_small_cuts():
    # level 0 reads the first 2 forests; every cut of weight <= 2 survives
    n = 8
    eng = Engine(n, _cfg(MODE_PACKED, copies=2))
    rng = random.Random(12)
    edges = set()
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.4:
            e = (u, v)
            eng.insert(e)
            edges.add(e)
    packing = eng._views[eng._instances[0][0]]
    union = dict(packing.union_graph(2).edges())
    for bits in range(1, 2 ** (n - 1)):
        side = {v for v in range(n) if bits >> v & 1}
        true_cut = sum(1 for u, v in edges if (u in side) != (v in side))
        packed = sum(w for (u, v), w in union.items() if (u in side) != (v in side))
        if true_cut <= 2:
            assert packed == true_cut


@pytest.mark.parametrize("mode", MODES)
def test_star_reports_leaf_edge(mode):
    eng = Engine(7, _cfg(mode, report_edges=True))
    _fill(eng, [(0, leaf) for leaf in range(1, 7)])
    cut = eng.query_cut()
    assert cut.value == 1
    assert cut.cut_edges == frozenset({(0, 1)})  # smallest-id leaf wins ties
    assert cut.side == frozenset({1})


@pytest.mark.parametrize("mode", MODES)
def test_two_blocks_bridged_by_two_edges(mode):
    block_a = list(combinations(range(4), 2))
    block_b = list(combinations(range(4, 8), 2))
    bridges = [(0, 4), (1, 5)]
    edges = set(block_a + block_b + bridges)
    eng = Engine(8, _cfg(mode, copies=6, report_edges=True))
    _fill(eng, edges)
    cut = eng.query_cut()
    assert cut.value == 2
    assert cut.cut_edges == frozenset(bridges)
    assert _is_disconnected(8, edges, cut.cut_edges)


def test_query_cut_needs_flag():
    eng = Engine(4, _cfg(MODE_PACKED))
    eng.insert((0, 1))
    with pytest.raises(RuntimeError):
        eng.query_cut()


def _replay(mode, n, steps, seed, copies, check_every=5):
    rng = random.Random(seed)
    eng = Engine(n, _cfg(mode, copies=copies, seed=seed, report_edges=True))
    shadow = WeightedGraph(range(n))
    present: set = set()
    for step in range(steps):
        if present and (rng.random() < 0.4 or len(present) == n * (n - 1) // 2):
            e = rng.choice(sorted(present))
            present.discard(e)
            eng.delete(e)
            shadow.add_weight(e, -1)
        else:
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and edge_key(u, v) not in present:
                    break
            e = edge_key(u, v)
            present.add(e)
            eng.insert(e)
            shadow.add_weight(e, 1)
        if step % check_every == check_every - 1:
            yield eng, shadow, present


@pytest.mark.parametrize("mode", MODES)
def test_matches_oracle_on_streams(mode):
    for eng, shadow, present in _replay(mode, 12, 240, seed=21, copies=6):
        want = brute_force_mincut(shadow).value
        assert eng.query_value() == want
        cut = eng.query_cut()
        assert cut.value == want
        assert len(cut.cut_edges) == want
        if want:
            assert _is_disconnected(12, present, cut.cut_edges)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("copies", [1, 3])
def test_never_answers_below_oracle(mode, copies):
    # safety must hold for any copy count, including a single copy
    for seed in (5, 6):
        for eng, shadow, _ in _replay(mode, 10, 150, seed=seed, copies=copies):
            assert eng.query_value() >= brute_force_mincut(shadow).value


@pytest.mark.parametrize("mode", MODES)
def test_deterministic_replay(mode):
    def run():
        answers = []
        for eng, _, _ in _replay(mode, 10, 120, seed=33, copies=3):
            answers.append(eng.query_value())
            answers.append(sorted(eng.query_cut().cut_edges))
        return answers

    assert run() == run()


def test_seed_changes_instance_layout():
    a = Engine(64, _cfg(MODE_PACKED, copies=2, seed=1, center_coeff=2.0))
    b = Engine(64, _cfg(MODE_PACKED, copies=2, seed=2, center_coeff=2.0))
    layout = lambda eng: [inst.centers for row in eng._instances for inst in row]
    assert layout(a) != layout(b)


def test_copies_default_scales_with_size():
    assert Engine(64).copies == 30  # ceil(5 * log2 64)
    assert Engine(2, EngineConfig()).copies == 5


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        Engine(0)
    with pytest.raises(ValueError):
        Engine(4, EngineConfig(mode="sideways"))
    for copies in (0, -2):
        with pytest.raises(ValueError):
            Engine(8, EngineConfig(copies=copies))
    # a non-positive coefficient draws no centers or never drains the
    # relabel queue; a non-finite one fails inside every lazy update
    for name in ("center_coeff", "budget_coeff"):
        for bad in (0, -1, math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                Engine(8, EngineConfig(**{name: bad}))


def test_update_validates_sign():
    eng = Engine(4, _cfg(MODE_PACKED))
    with pytest.raises(ValueError):
        eng.update((0, 1), 0)


def test_stats_counters():
    eng = Engine(6, _cfg(MODE_PACKED, copies=2))
    _fill(eng, _cycle(6))
    eng.query_value()
    eng.query_value()
    assert eng.stats.updates == 6
    assert eng.stats.queries == 2
    assert len(eng.completeness()) == eng.levels


@pytest.mark.parametrize("mode", MODES)
def test_on_demand_stats(mode):
    # center probability min(1, log2(64) / 2^i): levels 0..2 are the
    # identity, levels 3..6 contract; a budget of at most 9 edge moves per
    # update keeps direct mode's relabel queues from draining, while packed
    # mode relabels eagerly and never keeps a queue
    n = 64
    eng = Engine(n, _cfg(mode, copies=3, center_coeff=1.0, budget_coeff=1e-4))
    rng = random.Random(8)
    present = set()
    queued = incomplete = 0
    for _ in range(600):
        u, v = rng.sample(range(n), 2)
        e = edge_key(u, v)
        if e in present:
            eng.delete(e)
            present.discard(e)
        else:
            eng.insert(e)
            present.add(e)
        rates = eng.completeness()
        assert len(rates) == eng.levels
        assert rates[:3] == [1.0] * 3
        if mode == MODE_PACKED:
            assert eng.queue_length() == 0
        queued += eng.queue_length() > 0
        incomplete += min(rates[3:]) < 1.0
    if mode == MODE_DIRECT:
        assert queued and incomplete


def _two_k4_bridge():
    return (list(combinations(range(4), 2)) + list(combinations(range(4, 8), 2))
            + [(3, 4)])


def _count_calls(monkeypatch, owner, name):
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("mode", MODES)
def test_identity_views_are_shared(monkeypatch, mode):
    # At the default coefficient every level is an identity view, so each
    # update reaches one instance and each query runs one static cut,
    # however many copies the grid has.
    updates = _count_calls(monkeypatch, StarInstance, "apply_update")
    cuts = _count_calls(monkeypatch, engine_module, "stoer_wagner")
    eng = Engine(8, _cfg(mode, copies=6, report_edges=True))
    edges = _two_k4_bridge()
    _fill(eng, edges)
    assert updates[0] == len(edges)
    assert eng.query_value() == 1
    assert eng.query_cut().cut_edges == frozenset({(3, 4)})
    assert cuts[0] == 2
    shared = {id(inst) for row in eng._instances for inst in row}
    assert len(shared) == 1
    if mode == MODE_PACKED:
        # one packing, deep enough for the top level, serves every cell
        packings = {id(eng._views[inst]) for row in eng._instances for inst in row}
        assert len(packings) == 1
        assert eng._views[eng._instances[0][0]].depth == 2**eng.levels
    assert eng.completeness() == [1.0] * eng.levels


@pytest.mark.parametrize("mode", MODES)
def test_contracting_levels_keep_their_copies(monkeypatch, mode):
    # center probability min(1, 2 * log2(64) / 2^i): levels 0..3 are the
    # identity, levels 4..6 contract and keep one instance per copy; every
    # instance reads the engine's graph, so an insert changes one graph
    updates = _count_calls(monkeypatch, StarInstance, "apply_update")
    graph_inserts = _count_calls(monkeypatch, DynamicGraph, "insert_edge")
    copies = 3
    eng = Engine(64, _cfg(mode, copies=copies, center_coeff=2.0))
    contracting = [4, 5, 6]
    for i in range(eng.levels):
        distinct = {id(row[i]) for row in eng._instances}
        assert len(distinct) == (copies if i in contracting else 1)
        if mode == MODE_PACKED:
            assert len({id(eng._views[row[i]]) for row in eng._instances}) == len(distinct)
    assert all(inst.graph is eng.graph for row in eng._instances for inst in row)
    eng.insert((0, 1))
    assert updates[0] == 1 + copies * len(contracting)
    assert graph_inserts[0] == 1


@pytest.mark.parametrize("mode", MODES)
def test_rejected_updates_leave_engine_unchanged(mode):
    # the engine's graph is the only check in front of every instance: a
    # rejected update must reach none of them; minimum degree 17 puts the
    # query on contracting level 4
    n = 64
    eng = Engine(n, _cfg(mode, copies=3, center_coeff=2.0))
    _fill(eng, [(v, (v + k) % n) for v in range(n) for k in range(1, 10)])
    eng.delete((0, 1))
    views = {id(inst): inst for row in eng._instances for inst in row}

    def snapshot():
        shape = [
            (inst.contracted_graph().copy(), inst.is_complete(),
             inst.queue_length())
            for inst in views.values()
        ]
        return shape, sorted(eng.graph.edges()), eng.stats.updates

    before = snapshot()
    value = eng.query_value()
    assert len(views) > 1 + 3  # contracting levels are in play
    with pytest.raises(DuplicateEdgeError):
        eng.insert((0, 2))
    with pytest.raises(MissingEdgeError):
        eng.delete((0, 1))
    with pytest.raises(ValueError):
        eng.insert((0, n))
    with pytest.raises(ValueError):
        eng.update((0, 1), 0)
    assert snapshot() == before
    assert eng.query_value() == value


def test_drawn_identity_shares_a_mixed_level():
    # center probability 2.5 * log2(8) / 8 < 1 at level 3, yet some copies
    # draw every vertex: those cells alias the shared identity instance
    eng = Engine(8, _cfg(MODE_PACKED, copies=6, center_coeff=2.5))
    cells = [row[3] for row in eng._instances]
    drawn_all = [inst for inst in cells if len(inst.centers) == 8]
    assert 0 < len(drawn_all) < len(cells)
    assert {id(inst) for inst in drawn_all} == {id(eng._instances[0][0])}
    assert len({id(inst) for inst in cells}) == 1 + len(cells) - len(drawn_all)
