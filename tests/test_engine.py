"""Engine behavior: query paths, safety, cut reporting, determinism."""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

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
    generate_stream,
    stoer_wagner,
)
from dyncut.contraction import StarInstance
from dyncut.streams import INSERT

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


def test_every_built_level_is_read():
    # a simple graph's minimum degree is 1..n-1 when a query reads a level,
    # and the engine builds exactly the levels those degrees select
    for n in range(1, 131):
        eng = Engine(n, _cfg(MODE_DIRECT, copies=1))
        read = {eng._level_for_degree(d) for d in range(1, n)}
        assert read == set(range(eng.levels)), n


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        Engine(0)
    with pytest.raises(ValueError):
        Engine(4, EngineConfig(mode="sideways"))
    for copies in (0, -2, 2.5):
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
    assert len(eng.completeness()) == eng.levels


@pytest.mark.parametrize("mode", MODES)
def test_on_demand_stats(mode):
    # center probability min(1, log2(64) / 2^i): levels 0..2 are the
    # identity, levels 3..5 contract; a budget of at most 9 edge moves per
    # update keeps the relabel queues from draining in either mode
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
        queued += eng.queue_length() > 0
        incomplete += min(rates[3:]) < 1.0
    assert queued and incomplete


@pytest.mark.parametrize(
    ("mode", "center_coeff", "reads"),
    [(MODE_DIRECT, 1.0, 1), (MODE_DIRECT, None, 0), (MODE_PACKED, 1.0, 1)],
    ids=["direct-contracting", "direct-identity", "packed"],
)
def test_min_degree_read_once_per_update(monkeypatch, mode, center_coeff, reads):
    # The relabel budget depends only on n and the graph's minimum degree,
    # so an update with contracting views reads that degree once in either
    # mode, however many views have a queue to drain; identity views never
    # queue, so an engine of identity views only never reads it. At
    # center_coeff 1 levels 3..5 contract, and budget_coeff 1e-4 keeps their
    # queues from draining.
    n = 64
    kw = {} if center_coeff is None else {"center_coeff": center_coeff}
    eng = Engine(n, _cfg(mode, copies=3, budget_coeff=1e-4, **kw))
    reads_made = _count_calls(monkeypatch, DynamicGraph, "min_degree")
    rng = random.Random(8)
    present = set()
    queued = 0
    for _ in range(400):
        u, v = rng.sample(range(n), 2)
        e = edge_key(u, v)
        sign = -1 if e in present else 1
        present ^= {e}
        before = reads_made[0]
        eng.update(e, sign)
        assert reads_made[0] - before == reads
        queued += eng.queue_length() > 0
    assert (queued > 0) == (center_coeff is not None)


@pytest.mark.parametrize("mode", MODES)
def test_relabel_queues_hold_live_edges_once(mode):
    # a budget of one edge move per update leaves the relabel queues
    # undrained on most of these 3,000 updates, while representative changes
    # keep adding the same edges and deletions kill queued ones; a queue
    # that kept an edge per change would outgrow the graph (the 160 live
    # edges here), and each view's audit finds any dead edge kept; packings
    # under such a budget are audited by the packed-contracting state
    # machine and by test_view_on_a_packings_weights_keeps_the_packing_on_its_quotient
    stream = generate_stream("dense-regular", 32, 3000, 0, degree=10)
    eng = Engine(32, _cfg(mode, copies=4, seed=3, center_coeff=1.0,
                          budget_coeff=1e-4))
    queued = 0
    for ev in stream.events:
        eng.update(ev.edge, 1 if ev.kind == INSERT else -1)
        eng.graph.audit()
        for inst in eng._views:
            inst.audit()
            assert inst.queue_length() <= eng.graph.edge_count
        queued += eng.queue_length() > 0
    assert queued > 1000  # the throttle binds


def test_packed_and_direct_views_agree_under_a_binding_budget():
    # a packed view writes its quotient weights into its packing's; that
    # must change nothing the view holds, so with queues left undrained by
    # a budget of one edge move per update, the packed and direct engines'
    # views agree view by view, and each packed view shares its packing's
    # weights dict
    stream = generate_stream("dense-regular", 32, 1500, 4, degree=10)
    engines = [Engine(32, _cfg(mode, seed=4, center_coeff=1.0,
                               budget_coeff=1e-4)) for mode in MODES]
    for ev in stream.events:
        for eng in engines:
            eng.update(ev.edge, 1 if ev.kind == INSERT else -1)
    packed, direct = (list(eng._views.items()) for eng in engines)
    assert len(packed) == len(direct) > 1
    assert sum(view.queue_length() for view, _ in direct) > 0
    for (p, packing), (d, _) in zip(packed, direct):
        assert p._weights is packing.weights
        assert p.centers == d.centers
        assert p.contracted_graph() == d.contracted_graph()
        assert p.queue_length() == d.queue_length()
    for eng in engines:
        eng.audit()


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
    built = _count_calls(monkeypatch, StarInstance, "__init__")
    updates = _count_calls(monkeypatch, StarInstance, "apply_update")
    cuts = _count_calls(monkeypatch, engine_module, "stoer_wagner")
    eng = Engine(8, _cfg(mode, copies=6, report_edges=True))
    assert built[0] == 1  # the identity, and no instance drawn per cell
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


@pytest.mark.parametrize("n", [2, 1000, 16384])
def test_default_coefficient_builds_the_identity_only(monkeypatch, n):
    # Every level built has a threshold 2^i <= n - 1, where the center
    # probability 800 * log2(n) / 2^i is at least 1 for n <= 16384, so no
    # cell draws centers: the default grid of 5 * log2(n) copies builds
    # one instance in all.
    built = _count_calls(monkeypatch, StarInstance, "__init__")
    eng = Engine(n, EngineConfig(mode=MODE_DIRECT))
    assert built[0] == 1
    assert list(eng._views) == [eng._instances[0][0]]


@pytest.mark.parametrize("mode", MODES)
def test_views_store_no_pair_outside_the_queue(mode):
    # A view stores a key and a representative pair only for a queued,
    # stale edge. At n = 32 every budget, at least 645 moves in either
    # mode, exceeds the 496 possible edges, so
    # each update drains every queue it fills and no view keeps any pair;
    # at center_coeff 1 levels 3..4 contract, so the four copies hold eight
    # contracting views beside the shared identity view, and their
    # representatives move
    n = 32
    eng = Engine(n, _cfg(mode, copies=4, center_coeff=1.0))
    assert len(eng._views) == 9
    rng = random.Random(13)
    present = set()
    relabels = 0
    for _ in range(300):
        u, v = rng.sample(range(n), 2)
        e = edge_key(u, v)
        sign = -1 if e in present else 1
        present ^= {e}
        reps = [[view.representative(x) for x in range(n)] for view in eng._views]
        eng.update((v, u), sign)
        assert set(eng.graph.edges()) == present
        assert eng.queue_length() == 0
        relabels += reps != [[view.representative(x) for x in range(n)]
                             for view in eng._views]
    assert present
    assert relabels >= 100


@pytest.mark.parametrize("mode", MODES)
def test_contracting_levels_keep_their_copies(monkeypatch, mode):
    # center probability min(1, 2 * log2(64) / 2^i): levels 0..3 are the
    # identity, levels 4..5 contract and keep one instance per copy; every
    # instance reads the engine's graph, so an insert changes one graph
    updates = _count_calls(monkeypatch, StarInstance, "apply_update")
    graph_inserts = _count_calls(monkeypatch, DynamicGraph, "insert_edge")
    copies = 3
    eng = Engine(64, _cfg(mode, copies=copies, center_coeff=2.0))
    contracting = [4, 5]
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
            (dict(inst.contracted_graph().edges()), inst.is_complete(),
             inst.queue_length())
            for inst in views.values()
        ]
        return shape, sorted(eng.graph.edges())

    eng.audit()
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
    eng.audit()
    assert eng.query_value() == value


def test_drawn_identity_shares_a_mixed_level(monkeypatch):
    # center probability 1.25 * log2(8) / 4 < 1 at level 2, the top level
    # at n = 8, yet some copies draw every vertex: those cells alias the
    # shared identity instance
    built = _count_calls(monkeypatch, StarInstance, "__init__")
    eng = Engine(8, _cfg(MODE_PACKED, copies=6, center_coeff=1.25))
    assert built[0] == len(eng._views)  # one instance per distinct view
    cells = [row[2] for row in eng._instances]
    drawn_all = [inst for inst in cells if len(inst.centers) == 8]
    assert 0 < len(drawn_all) < len(cells)
    assert {id(inst) for inst in drawn_all} == {id(eng._instances[0][0])}
    assert len({id(inst) for inst in cells}) == 1 + len(cells) - len(drawn_all)


def _bridged_circulants(rng: random.Random, steps: int):
    """Two degree-17 circulants on 32 vertices each joined by four bridges,
    as the edge list that builds them plus a churn of (sign, edge) updates:
    random edges inside the halves, deleted only while both endpoints keep
    17 edges within their half, and now and then a bridge moved. The cut
    between the halves stays far below the minimum degree, so only a
    quotient can answer it."""
    half = 32
    edges = {
        edge_key(base + v, base + (v + k) % half)
        for base in (0, half)
        for v in range(half)
        for k in (*range(1, 9), half // 2)
    }
    bridges = {(v, half + v) for v in range(0, half, 8)}
    inner = [17] * (2 * half)  # edges within the vertex's half

    def churn():
        for _ in range(steps):
            if rng.random() < 0.1:
                e = rng.choice(sorted(bridges))
                new = (rng.randrange(half), half + rng.randrange(half))
                if new not in bridges:
                    bridges.discard(e)
                    bridges.add(new)
                    yield -1, e
                    yield +1, new
                continue
            base = rng.choice((0, half))
            u, v = rng.sample(range(base, base + half), 2)
            e = edge_key(u, v)
            if e not in edges:
                sign = +1
            elif inner[u] > 17 and inner[v] > 17:
                sign = -1
            else:
                continue
            edges.symmetric_difference_update({e})
            inner[u] += sign
            inner[v] += sign
            yield sign, e

    return sorted(edges | bridges), churn()


@pytest.mark.parametrize("mode", MODES)
def test_contracting_level_witness_is_an_input_cut(mode):
    # center probability 2 * log2(64) / 16 = 0.75 at level 4, where the
    # minimum degree of 17..31 puts every query: the quotients contract,
    # and the bridges between the halves are the minimum cut
    n = 64
    eng = Engine(n, _cfg(mode, copies=3, center_coeff=2.0, report_edges=True))
    level = 4
    assert all(len(row[level].centers) < n for row in eng._instances)
    build, churn = _bridged_circulants(random.Random(8), 600)
    _fill(eng, build)
    queries = by_quotient = 0
    for step, (sign, e) in enumerate(churn):
        eng.update(e, sign)
        if step % 10:
            continue
        degree = eng.graph.min_degree()
        assert eng._level_for_degree(degree) == level
        live = list(eng.graph.edges())
        shadow = WeightedGraph(range(n))
        for f in live:
            shadow.add_weight(f, 1)
        cut = eng.query_cut()
        crossing = {f for f in live if (f[0] in cut.side) != (f[1] in cut.side)}
        assert cut.cut_edges == crossing
        assert len(cut.cut_edges) == cut.value
        assert cut.value == stoer_wagner(shadow).value
        queries += 1
        by_quotient += cut.value < degree
    assert queries >= 40
    assert by_quotient > 0


class EngineMachine(RuleBasedStateMachine):
    """Drives a two-copy engine on at most 12 vertices with legal and
    rejected updates and queries, auditing it after every step.

    Every answer lies between the true cut and the minimum degree; where
    every view is the identity it is the true cut. A rejected update must
    leave the edges, each view's quotient, the queue lengths and the
    completeness as they were.
    """

    def __init__(self, mode: str, **config) -> None:
        super().__init__()
        self.mode, self.config = mode, config

    @initialize(n=st.integers(2, 12), seed=st.integers(0, 2**16),
                density=st.sampled_from([0.0, 0.5, 0.9]), bridged=st.booleans(),
                pick=st.randoms(use_true_random=False))
    def build(self, n, seed, density, bridged, pick):
        # a dense start puts queries on the levels that contract; a bridged
        # one keeps few edges between the halves, a cut below the minimum
        # degree that only a quotient can answer
        self.n = n
        self.eng = Engine(n, _cfg(self.mode, copies=2, seed=seed, **self.config))
        self.pairs = list(combinations(range(n), 2))
        half = n // 2
        self.present = {
            (u, v) for u, v in self.pairs
            if pick.random() < (0.05 if bridged and u < half <= v else density)
        }
        _fill(self.eng, sorted(self.present))

    def _snapshot(self):
        eng = self.eng
        views = [(dict(inst.contracted_graph().edges()), inst.queue_length())
                 for inst in eng._views]
        return sorted(eng.graph.edges()), views, eng.completeness()

    @precondition(lambda self: len(self.present) < len(self.pairs))
    @rule(data=st.data())
    def insert(self, data):
        e = data.draw(st.sampled_from([e for e in self.pairs if e not in self.present]))
        self.eng.insert(e[::-1] if data.draw(st.booleans()) else e)
        self.present.add(e)

    @precondition(lambda self: self.present)
    @rule(data=st.data())
    def delete(self, data):
        e = data.draw(st.sampled_from(sorted(self.present)))
        self.eng.delete(e)
        self.present.discard(e)

    @rule(data=st.data(), sign=st.sampled_from([1, -1]))
    def rejected_update(self, data, sign):
        v = data.draw(st.integers(0, self.n - 1))
        bad = [((0, 1), 0, ValueError),  # sign 0
               ((v, v), sign, ValueError),  # self-loop
               ((v, self.n), sign, ValueError)]  # out of range
        if self.present:
            bad.append((data.draw(st.sampled_from(sorted(self.present))), 1,
                        DuplicateEdgeError))
        absent = [e for e in self.pairs if e not in self.present]
        if absent:
            bad.append((data.draw(st.sampled_from(absent)), -1, MissingEdgeError))
        e, bad_sign, error = data.draw(st.sampled_from(bad))
        before = self._snapshot()
        with pytest.raises(error):
            self.eng.update(e, bad_sign)
        assert self._snapshot() == before

    @rule()
    def query_value(self):
        shadow = WeightedGraph(range(self.n))
        for e in self.present:
            shadow.add_weight(e, 1)
        truth = brute_force_mincut(shadow).value
        value = self.eng.query_value()
        assert truth <= value <= self.eng.graph.min_degree()
        if all(len(inst.centers) == self.n for inst in self.eng._views):
            assert value == truth

    @invariant()
    def audited(self):
        self.eng.audit()
        assert set(self.eng.graph.edges()) == self.present


@pytest.mark.parametrize(
    ("mode", "config"),
    [(MODE_DIRECT, {}),
     (MODE_DIRECT, {"center_coeff": 1.0, "budget_coeff": 1e-4}),
     (MODE_PACKED, {"center_coeff": 1.0, "budget_coeff": 1e-4})],
    ids=["direct-default", "direct-contracting", "packed-contracting"],
)
def test_engine_state_machine(mode, config):
    # at center_coeff 1 level 2 contracts for n >= 5 and level 3 for n >= 9,
    # and budget_coeff 1e-4 allows one edge move per update, so queues stay
    # undrained; 80 runs of 25 steps take a few seconds
    run_state_machine_as_test(
        lambda: EngineMachine(mode, **config),
        settings=settings(max_examples=80, stateful_step_count=25,
                          derandomize=True, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow]),
    )
