"""Star contraction instances: mapping rules, relabels, completeness."""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from dyncut import (
    DynamicGraph,
    StarInstance,
    WeightedGraph,
    brute_force_mincut,
    edge_key,
)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _star(n: int, **kw) -> StarInstance:
    """An instance reading a fresh graph of its own on n vertices."""
    return StarInstance(DynamicGraph(n), **kw)


def _apply(inst: StarInstance, e, sign: int):
    """Apply an edge update to the instance's graph, then to the instance."""
    if sign == 1:
        inst.graph.insert_edge(e)
    else:
        inst.graph.delete_edge(e)
    return inst.apply_update(e, sign)


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
    # weight(c) == |preimage(c)| for every contracted key
    contracted = inst.contracted_graph()
    for c, w in contracted.edges():
        assert w == len(inst.preimage_of(c)), c
    for c in list(inst._preimage):
        assert contracted.weight(c) == len(inst.preimage_of(c))


def test_probability_clamps_to_one():
    inst = _star(16, threshold=2)
    assert inst.center_probability == 1.0
    assert inst.centers == frozenset(range(16))


def test_probability_arithmetic_at_default_coefficient():
    inst = _star(1024, threshold=512)
    assert inst.center_probability == 1.0  # min(1, 800*10/512)


def test_probability_small_coefficient():
    inst = _star(1024, threshold=512, center_coeff=2.0)
    assert inst.center_probability == pytest.approx(0.0390625)


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
    inst = _star(4, threshold=1, centers=frozenset({0, 1}))
    assert _apply(inst, (0, 1), +1) == [((0, 1), 1)]
    assert dict(inst.contracted_graph().edges()) == {(0, 1): 1}


def test_insert_between_orphan_noncenters():
    inst = _star(4, threshold=1, centers=frozenset({0}))
    assert _apply(inst, (2, 3), +1) == []
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
        inst = _star(4, threshold=4, seed=seed, centers=frozenset({0, 1}))
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
    assert _star(6, threshold=6, centers=frozenset({0})).is_complete()


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
            check=None) -> None:
    rng = random.Random(seed)
    present: set = set()
    for _ in range(steps):
        if present and rng.random() < 0.4:
            e = rng.choice(sorted(present))
            _apply(inst, e, -1)
            present.discard(e)
        else:
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and edge_key(u, v) not in present:
                    break
            e = edge_key(u, v)
            _apply(inst, e, +1)
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
    # exceeds any relabel, so the lazy instance drains each task within the
    # update that queued it and must match the eager one move for move
    n = 32
    graph = DynamicGraph(n)
    eager, lazy = (
        StarInstance(graph, threshold=16, mode=mode, center_coeff=1.0, seed=seed)
        for mode in ("eager", "lazy")
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
        assert eager.apply_update(e, sign) == lazy.apply_update(e, sign)
        assert eager.contracted_graph() == lazy.contracted_graph()
        assert lazy.queue_length() == 0 and not lazy.has_pending()
        relabels += reps != [eager.representative(x) for x in range(n)]
    assert relabels >= 10


@pytest.mark.parametrize("seed", range(6))
def test_lazy_settles_to_recontraction(seed):
    inst = _star(12, threshold=8, mode="lazy", center_coeff=2.0, seed=seed)

    def check(i):
        _scan_consistency(i)
        if not i.has_pending():
            assert i.contracted_graph() == _recontract(i)

    _drive(inst, seed * 13 + 5, 12, 220, check)


def test_lazy_tiny_budget_still_coherent(monkeypatch):
    # starve the queue so relabels span many updates, then drain fully;
    # the budget is 1 edge move here, so each update may move its own edge
    # plus at most one queued one
    inst = _star(
        16, threshold=12, mode="lazy", center_coeff=1.0, seed=3,
        budget_coeff=1e-4,
    )
    moves = 0
    retarget = StarInstance._retarget

    def counted_retarget(self, f, pair, deltas):
        nonlocal moves
        moves += 1
        retarget(self, f, pair, deltas)

    monkeypatch.setattr(StarInstance, "_retarget", counted_retarget)
    saw_pending = False
    def check(i):
        nonlocal saw_pending, moves
        saw_pending = saw_pending or i.has_pending()
        _scan_consistency(i)
        assert moves <= 1 + i.relabel_budget()
        moves = 0

    _drive(inst, 91, 16, 300, check)
    assert saw_pending, "budget never throttled the queue"
    while inst.has_pending():
        _apply(inst, (0, 1), +1)
        check(inst)
        _apply(inst, (0, 1), -1)
        check(inst)
    assert inst.contracted_graph() == _recontract(inst)


def test_lazy_default_budget_drains_each_step():
    # at this scale the default budget exceeds any queue the stream builds
    inst = _star(16, threshold=12, mode="lazy", center_coeff=1.0, seed=7)
    occupied = 0
    steps = 250

    def check(i):
        nonlocal occupied
        occupied += 1 if i.has_pending() else 0

    _drive(inst, 17, 16, steps, check)
    assert occupied / steps <= 0.5


def test_budget_formula():
    inst = _star(16, threshold=2, mode="lazy")
    for e in [(0, 1), (1, 2), (0, 2)]:
        _apply(inst, e, +1)
    # delta = 1 (vertex 3 isolated -> max(delta,1)); 16 * 4^4 = 4096
    assert inst.relabel_budget() == 4096


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
    with pytest.raises(ValueError):
        _star(4, threshold=0)
    with pytest.raises(ValueError):
        _star(4, threshold=1, mode="sideways")
    inst = _star(4, threshold=1)
    with pytest.raises(ValueError):
        inst.apply_update((0, 1), 2)
