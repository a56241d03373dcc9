"""Star contraction instances: mapping rules, relabels, completeness."""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from dyncut import (
    DynamicGraph,
    ForestPacking,
    StarInstance,
    WeightedGraph,
    WeightError,
    brute_force_mincut,
    edge_key,
)
from dyncut.contraction import (
    DEFAULT_BUDGET_COEFF,
    DEFAULT_CENTER_COEFF,
    center_probability,
    relabel_budget,
)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _star(n: int, threshold: int = 1, center_coeff: float = DEFAULT_CENTER_COEFF,
          seed: int = 0, centers: frozenset[int] | None = None,
          graph: DynamicGraph | None = None,
          weights: dict | None = None) -> StarInstance:
    """An instance on n vertices whose samplers draw from random.Random(seed).

    Unless centers are given, that generator first draws them as the engine
    draws a cell's: each vertex in id order with center_probability(n,
    threshold, center_coeff). The instance reads graph, or by default a
    fresh graph of its own, and writes its quotient weights into weights,
    or by default a dict of its own.
    """
    rng = random.Random(seed)
    if centers is None:
        p = center_probability(n, threshold, center_coeff)
        centers = frozenset(v for v in range(n) if rng.random() < p)
    return StarInstance(DynamicGraph(n) if graph is None else graph, centers, rng,
                        weights)


def _apply(inst: StarInstance, e, sign: int, budget_coeff=None, budget=math.inf):
    """Apply an edge update to the instance's graph, then to the instance.

    Without a budget coefficient the instance drains up to budget queued
    edges, by default its whole relabel queue; with one it drains the
    relabel budget at the updated graph's minimum degree, as the engine
    hands it.
    """
    if sign == 1:
        inst.graph.insert_edge(e)
    else:
        inst.graph.delete_edge(e)
    if budget_coeff is not None:
        graph = inst.graph
        budget = relabel_budget(graph.n, graph.min_degree(), budget_coeff)
    inst.apply_update(edge_key(*e), sign, budget)


def _recontract(inst: StarInstance) -> WeightedGraph:
    """From-scratch contraction of the live graph under the current reps."""
    g = WeightedGraph(inst.centers)
    for u, v in inst.graph.edges():
        ru, rv = inst.representative(u), inst.representative(v)
        if ru is None or rv is None or ru == rv:
            continue
        g.add_weight(edge_key(ru, rv), 1)
    return g


def _scan_consistency(inst: StarInstance) -> None:
    # the relabel invariant, the representative table and the queue's
    # liveness, in the instance's own one-pass audit
    inst.audit()
    # weight(c) == |preimage(c)| for every contracted key
    contracted = inst.contracted_graph()
    for c, w in contracted.edges():
        assert w == len(inst.preimage_of(c)), c
    # the mapped, non-loop pairs are the preimages of all center pairs:
    # distinct live edges, as many as the total quotient weight
    mapped = [
        f for c in combinations(sorted(inst.centers), 2) for f in inst.preimage_of(c)
    ]
    assert len(set(mapped)) == len(mapped)
    assert set(mapped) <= set(inst.graph.edges())
    assert contracted.total_weight() == len(mapped)


def test_probability_clamps_to_one():
    assert center_probability(16, 2) == 1.0
    assert _star(16, threshold=2).centers == frozenset(range(16))


def test_probability_arithmetic_at_default_coefficient():
    assert center_probability(1024, 512) == 1.0  # min(1, 800*10/512)


def test_probability_small_coefficient():
    assert center_probability(1024, 512, 2.0) == pytest.approx(0.0390625)


def test_center_count_concentrates():
    # E[|R|] = n*p = 40; sample mean within 3 sigma of the mean
    n, p, trials = 1024, 0.0390625, 300
    total = 0
    for seed in range(trials):
        inst = _star(n, threshold=512, center_coeff=2.0, seed=seed)
        total += len(inst.centers)
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(total / trials - 40.0) < 3 * sigma / math.sqrt(trials)


def test_insert_between_centers():
    inst = _star(4, centers=frozenset({0, 1}))
    _apply(inst, (0, 1), +1)
    assert dict(inst.contracted_graph().edges()) == {(0, 1): 1}


def test_insert_between_orphan_noncenters():
    inst = _star(4, centers=frozenset({0}))
    _apply(inst, (2, 3), +1)
    assert not inst.is_complete()


def test_identity_regime_matches_input():
    inst = _star(8, threshold=2)  # p clamped, every vertex a center
    rng = random.Random(5)
    present: set = set()
    for _ in range(60):
        u, v = rng.sample(range(8), 2)
        e = edge_key(u, v)
        if e in present:
            _apply(inst, e, -1)
            present.discard(e)
        else:
            _apply(inst, e, +1)
            present.add(e)
        assert inst.is_complete()
        assert dict(inst.contracted_graph().edges()) == {e: 1 for e in present}
        for e in present:
            assert inst.preimage_of(e) == frozenset({e})
    assert inst.preimage_of((0, 99)) == frozenset()


def _k4_with_known_reps() -> StarInstance:
    # find a seed that lands rep(2)=0 and rep(3)=1 after inserting K_4
    for seed in range(500):
        inst = _star(4, seed=seed, centers=frozenset({0, 1}))
        for e in K4_EDGES:
            _apply(inst, e, +1)
        if inst.representative(2) == 0 and inst.representative(3) == 1:
            return inst
    raise AssertionError("no seed produced the scripted representative pair")


def test_k4_preimage_of_center_edge():
    inst = _k4_with_known_reps()
    assert inst.preimage_of((0, 1)) == frozenset({(0, 1), (0, 3), (1, 2), (2, 3)})
    assert dict(inst.contracted_graph().edges()) == {(0, 1): 4}
    _scan_consistency(inst)


def test_k4_forced_representative_flip():
    inst = _k4_with_known_reps()
    _apply(inst, (0, 2), -1)  # drops 0 from N(2) ∩ R, so rep(2) -> 1
    assert inst.representative(2) == 1
    assert inst.contracted_graph() == _recontract(inst)
    _scan_consistency(inst)
    # (1,2) and (2,3) both became internal to center 1's star
    assert inst.preimage_of((0, 1)) == frozenset({(0, 1), (0, 3)})


def test_empty_graph_is_complete():
    assert _star(6, centers=frozenset({0})).is_complete()


def test_sum_of_weights_counts_mapped_edges():
    inst = _k4_with_known_reps()
    assert inst.is_complete()
    mapped = inst.contracted_graph().total_weight()
    internal = sum(
        1
        for u, v in inst.graph.edges()
        if inst.representative(u) == inst.representative(v)
    )
    assert mapped + internal == inst.graph.edge_count


def _drive(inst: StarInstance, seed: int, n: int, steps: int,
            check=None, budget_coeff=None, budget=math.inf) -> None:
    rng = random.Random(seed)
    present: set = set()
    for _ in range(steps):
        if present and rng.random() < 0.4:
            e = rng.choice(sorted(present))
            _apply(inst, e, -1, budget_coeff, budget)
            present.discard(e)
        else:
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and edge_key(u, v) not in present:
                    break
            e = edge_key(u, v)
            _apply(inst, e, +1, budget_coeff, budget)
            present.add(e)
        if check is not None:
            check(inst)


@pytest.mark.parametrize("seed", range(6))
def test_eager_matches_recontraction_everywhere(seed):
    inst = _star(12, threshold=8, center_coeff=2.0, seed=seed)

    def check(i):
        assert i.contracted_graph() == _recontract(i)
        _scan_consistency(i)

    _drive(inst, seed * 11 + 1, 12, 220, check)


@pytest.mark.parametrize("seed", range(4))
def test_eager_equals_full_lazy_drain(seed):
    # at n = 32 the default budget, 32 * 5^4 / delta >= 645 edge moves,
    # exceeds any degree, so the lazy instance moves each relabeled vertex's
    # edges within the update that relabels it and must match the eager one
    # move for move
    n = 32
    graph = DynamicGraph(n)
    eager, lazy = (
        _star(n, threshold=16, center_coeff=1.0, seed=seed, graph=graph)
        for _ in range(2)
    )
    assert eager.centers == lazy.centers != frozenset(range(n))
    rng = random.Random(seed + 40)
    present: set = set()
    relabels = 0
    for _ in range(400):
        u, v = rng.sample(range(n), 2)
        e = edge_key(u, v)
        reps = [eager.representative(x) for x in range(n)]
        if e in present:
            sign = -1
            graph.delete_edge(e)
            present.discard(e)
        else:
            sign = 1
            graph.insert_edge(e)
            present.add(e)
        budget = relabel_budget(n, graph.min_degree())
        eager.apply_update(e, sign, math.inf)
        lazy.apply_update(e, sign, budget)
        assert eager.contracted_graph() == lazy.contracted_graph()
        assert lazy.queue_length() == 0 and not lazy.has_pending()
        _scan_consistency(eager)
        _scan_consistency(lazy)
        relabels += reps != [eager.representative(x) for x in range(n)]
    assert relabels >= 10


@pytest.mark.parametrize("seed", range(6))
def test_lazy_settles_to_recontraction(seed):
    inst = _star(12, threshold=8, center_coeff=2.0, seed=seed)

    def check(i):
        _scan_consistency(i)
        if not i.has_pending():
            assert i.contracted_graph() == _recontract(i)

    _drive(inst, seed * 13 + 5, 12, 220, check, DEFAULT_BUDGET_COEFF)


def test_lazy_tiny_budget_still_coherent(monkeypatch):
    # starve the queue so relabels span many updates, then drain fully;
    # the budget is 1 edge move here, so each update may move its own edge
    # plus at most one queued one
    coeff = 1e-4
    inst = _star(16, threshold=12, center_coeff=1.0, seed=3)
    moves = 0
    retarget = StarInstance._retarget
    apply_update = StarInstance.apply_update

    def counted_retarget(self, *args):
        nonlocal moves
        moves += 1
        retarget(self, *args)

    def counted_apply_update(self, *args):
        nonlocal moves
        moves += 1  # the update's own edge, counted inline
        return apply_update(self, *args)

    monkeypatch.setattr(StarInstance, "_retarget", counted_retarget)
    monkeypatch.setattr(StarInstance, "apply_update", counted_apply_update)
    saw_pending = False
    def check(i):
        nonlocal saw_pending, moves
        saw_pending = saw_pending or i.has_pending()
        _scan_consistency(i)
        assert moves <= 1 + relabel_budget(16, i.graph.min_degree(), coeff)
        moves = 0

    _drive(inst, 91, 16, 300, check, coeff)
    assert saw_pending, "budget never throttled the queue"
    while inst.has_pending():
        _apply(inst, (0, 1), +1, coeff)
        check(inst)
        _apply(inst, (0, 1), -1, coeff)
        check(inst)
    assert inst.contracted_graph() == _recontract(inst)


@pytest.mark.parametrize("seed", range(3))
def test_rep_table_follows_samplers(seed):
    # under a budget of one edge move per update the samplers move while
    # queues stay undrained and non-centers gain and lose their last center,
    # and the table must follow every sample the samplers hold
    n = 24
    inst = _star(n, threshold=8, center_coeff=1.0, seed=seed)
    assert inst.centers != frozenset(range(n))
    rng = random.Random(seed + 70)
    present: set = set()
    moved = 0
    for _ in range(600):
        u, v = rng.sample(range(n), 2)
        e = edge_key(u, v)
        sign = -1 if e in present else 1
        present ^= {e}
        before = [inst.representative(x) for x in range(n)]
        if sign == 1:
            inst.graph.insert_edge(e)
        else:
            inst.graph.delete_edge(e)
        assert inst.apply_update(e, sign, 1) == []
        inst.audit()
        moved += before != [inst.representative(x) for x in range(n)]
    assert moved >= 20


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "packed"])
def test_deleting_below_a_zero_quotient_weight_raises(packed):
    # the view writes its own quotient weights; once the weight of a pair is
    # gone, deleting a live edge counted under that pair must raise rather
    # than store a zero or negative weight, and leave a packing that holds
    # the weights as it was
    packing = ForestPacking(2, 4, {0, 1}) if packed else None
    weights = {} if packing is None else packing.weights
    inst = _star(4, centers=frozenset({0, 1}), weights=weights)
    _apply(inst, (0, 1), +1)
    quotient = inst.contracted_graph()
    del weights[(0, 1)]
    assert dict(quotient.edges()) == {}
    if packing is not None:
        assert packing.used_levels((0, 1)) == frozenset()  # it followed the del
    inst.graph.delete_edge((0, 1))
    with pytest.raises(WeightError):
        inst.apply_update((0, 1), -1, math.inf)
    assert all(w > 0 for _, w in quotient.edges())
    assert quotient.weight((0, 1)) == 0
    assert weights == {}
    if packing is not None:
        assert packing.used_levels((0, 1)) == frozenset()


def test_view_on_a_packings_weights_keeps_the_packing_on_its_quotient():
    # a view built on a packing's weights hands every write to the packing;
    # under a budget of one edge move per update, relabels queue and drain,
    # and after every update the packing must be a valid packing of the
    # view's quotient, held in the one dict the two share
    n, depth = 16, 4
    packing = ForestPacking(depth, n)
    inst = _star(n, threshold=12, center_coeff=1.0, seed=3, weights=packing.weights)
    saw_pending = False

    def check(i):
        nonlocal saw_pending
        saw_pending = saw_pending or i.has_pending()
        i.audit()
        packing.audit()
        assert i._weights is packing.weights

    _drive(inst, 91, n, 300, check, budget=1)
    assert saw_pending, "budget never throttled the queue"
    assert inst.contracted_graph().edge_count > 0


def _budgeted(inst: StarInstance, budget: float):
    """A step function applying updates to the instance at a fixed budget."""

    def step(e, sign):
        _apply(inst, e, sign, budget=budget)
        _scan_consistency(inst)

    return step


def test_drained_queue_pends_nothing():
    # a non-center that loses its last center has no edges left to rename;
    # once the queue ahead of it drains, the view is complete
    n = 40
    inst = _star(n, seed=1, centers=frozenset(range(n)) - {4, 5})
    step = _budgeted(inst, 1)
    spare = list(range(6, n))
    for c in spare[:14]:
        step((4, c), +1)
    step((1, 5), +1)
    rep = inst.representative(4)
    for c in spare[14:]:
        step((4, c), +1)
        if inst.representative(4) != rep:
            break
    assert inst.representative(4) != rep
    step((1, 5), -1)  # 5 has no center neighbour and no edge left
    assert inst.queue_length() > 0
    sign = +1
    while inst.queue_length():
        step((2, 3), sign)
        sign = -sign
    assert not inst.has_pending()
    assert inst.is_complete()
    assert inst.contracted_graph() == _recontract(inst)


def test_stale_relabel_never_reaches_a_reinserted_edge():
    # 2 gains center 0 and loses it again while (2, 3) is deleted and
    # reinserted; the rename queued by the first change must not map the
    # reinserted edge, whose endpoint 2 has no representative now
    inst = _star(4, centers=frozenset({0, 1}))
    step = _budgeted(inst, 0)  # nothing drains until the last update
    step((1, 3), +1)
    step((2, 3), +1)
    step((0, 2), +1)  # rep(2): None -> 0
    step((2, 3), -1)
    step((0, 2), -1)  # rep(2): 0 -> None
    step((2, 3), +1)
    _apply(inst, (0, 1), +1)
    _scan_consistency(inst)
    assert inst.representative(2) is None
    assert not inst.has_pending()
    assert not inst.is_complete()  # (2, 3) is unmapped
    assert inst.contracted_graph() == _recontract(inst)


def test_lazy_default_budget_drains_each_step(monkeypatch):
    # at this scale the default budget exceeds every degree, so each relabel
    # moves its vertex's edges within its update, no queue is written and
    # the drain is never entered, at the default budget as at math.inf
    drains = 0
    drain = StarInstance._drain

    def counted_drain(self, *args):
        nonlocal drains
        drains += 1
        drain(self, *args)

    monkeypatch.setattr(StarInstance, "_drain", counted_drain)
    for coeff in (DEFAULT_BUDGET_COEFF, None):  # None: a budget of math.inf
        inst = _star(16, threshold=12, center_coeff=1.0, seed=7)
        occupied = relabels = 0
        reps = list(inst._rep)

        def check(i):
            nonlocal occupied, relabels, reps
            occupied += i.has_pending()
            relabels += reps != i._rep
            reps = list(i._rep)
            _scan_consistency(i)

        _drive(inst, 17, 16, 250, check, coeff)
        assert occupied == 0
        assert relabels >= 20
    assert drains == 0


@pytest.mark.parametrize("budget", [2, 4])
def test_relabel_moves_or_queues_all_its_stale_edges(monkeypatch, budget):
    # at budgets around the degrees of this stream, a relabeled vertex's
    # newly stale edges either all move within the update, before any drain,
    # or all wait in the queue; no update moves more than its own edge plus
    # the budget, and both outcomes occur
    inst = _star(16, threshold=12, center_coeff=1.0, seed=3)
    apply_update = StarInstance.apply_update
    drain = StarInstance._drain
    retarget = StarInstance._retarget
    log: dict = {}
    outcomes = {"moved": 0, "queued": 0}

    def counted_retarget(self, *args):
        log["moves"] += 1
        retarget(self, *args)

    def watched_drain(self, *args):
        log["early"], log["queue"] = log["moves"], set(self._queue)
        drain(self, *args)

    def watched_apply_update(self, key, sign, b):
        reps, stale = list(self._rep), set(self._queue)
        log.update(moves=0, early=None, queue=None)
        out = apply_update(self, key, sign, b)
        assert log["moves"] <= b  # besides the update's own edge
        early = log["moves"] if log["early"] is None else log["early"]
        queue = set(self._queue) if log["queue"] is None else log["queue"]
        changed = [w for w in range(self.graph.n) if reps[w] != self._rep[w]]
        assert len(changed) <= 1
        for w in changed:
            fresh = {edge_key(w, x) for x in self.graph.neighbors(w)} - stale - {key}
            if not fresh:
                continue
            if early == len(fresh) and not fresh & queue:
                outcomes["moved"] += 1
            elif early == 0 and fresh <= queue:
                outcomes["queued"] += 1
            else:
                pytest.fail(f"vertex {w}: {early} of {len(fresh)} stale edges moved")
        return out

    monkeypatch.setattr(StarInstance, "_retarget", counted_retarget)
    monkeypatch.setattr(StarInstance, "_drain", watched_drain)
    monkeypatch.setattr(StarInstance, "apply_update", watched_apply_update)
    _drive(inst, 91, 16, 300, _scan_consistency, budget=budget)
    assert outcomes["moved"] >= 1 and outcomes["queued"] >= 1, outcomes
    assert inst.has_pending()
    e = next(f for f in combinations(range(16), 2) if f not in inst.graph.edges())
    _apply(inst, e, +1)  # a budget of math.inf drains the queue in full
    _apply(inst, e, -1)
    _scan_consistency(inst)
    assert not inst.has_pending()
    assert inst.contracted_graph() == _recontract(inst)


def test_budget_formula():
    graph = DynamicGraph(16)
    for e in [(0, 1), (1, 2), (0, 2)]:
        graph.insert_edge(e)
    # delta = 0 (vertex 3 isolated) counts as 1; 16 * 4^4 = 4096
    assert relabel_budget(16, graph.min_degree()) == 4096


def test_completeness_under_sufficient_degree():
    # tau below the maintained min degree keeps instances complete a.s.
    hits = 0
    runs = 200
    for seed in range(runs):
        inst = _star(16, threshold=2, seed=seed)
        rng = random.Random(10_000 + seed)
        present = set()
        for u, v in combinations(range(16), 2):
            if rng.random() < 0.5:
                e = (u, v)
                _apply(inst, e, +1)
                present.add(e)
        for _ in range(60):
            if present and rng.random() < 0.5:
                e = rng.choice(sorted(present))
                if min(inst.graph.degree(e[0]), inst.graph.degree(e[1])) > 2:
                    _apply(inst, e, -1)
                    present.discard(e)
            else:
                u, v = rng.sample(range(16), 2)
                e = edge_key(u, v)
                if e not in present:
                    _apply(inst, e, +1)
                    present.add(e)
        hits += 1 if inst.is_complete() else 0
    assert hits / runs >= 0.99


def test_complete_contraction_dominates_cut_value():
    rng = random.Random(606)
    checked = 0
    for seed in range(40):
        inst = _star(9, threshold=6, center_coeff=1.5, seed=seed)
        present = set()
        for u, v in combinations(range(9), 2):
            if rng.random() < 0.6:
                _apply(inst, (u, v), +1)
                present.add((u, v))
        if not inst.is_complete() or len(present) < 8:
            continue
        quotient = inst.contracted_graph()
        if len(quotient.vertices) < 2:
            continue
        base = WeightedGraph(range(9))
        for e in present:
            base.add_weight(e, 1)
        assert brute_force_mincut(quotient).value >= brute_force_mincut(base).value
        checked += 1
    assert checked >= 5


def test_representative_change_rate_bounded():
    # non-center reps move rarely: roughly tau / (c_p log n d) per touch
    n, tau, coeff = 32, 16, 2.0
    bound = 1.5 * coeff * math.log2(n) / tau
    touches = 0
    changes = 0
    for seed in range(30):
        inst = _star(n, threshold=tau, center_coeff=coeff, seed=seed)
        rng = random.Random(seed + 999)
        present: set = set()
        for _ in range(400):
            if present and rng.random() < 0.45:
                e = rng.choice(sorted(present))
                sign = -1
                present.discard(e)
            else:
                while True:
                    u, v = rng.randrange(n), rng.randrange(n)
                    if u != v and edge_key(u, v) not in present:
                        break
                e = edge_key(u, v)
                sign = +1
                present.add(e)
            non_centers = [x for x in e if x not in inst.centers]
            before = {x: inst.representative(x) for x in non_centers}
            _apply(inst, e, sign)
            for x in non_centers:
                other = e[0] if x == e[1] else e[1]
                if other in inst.centers:
                    touches += 1
                    if inst.representative(x) != before[x]:
                        changes += 1
    assert touches > 500
    assert changes / touches <= bound


def test_rejects_bad_arguments():
    with pytest.raises(ValueError, match="threshold must be positive"):
        center_probability(4, 0)
