"""Layered forest packing: maximality, disjointness, cut preservation."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from dyncut import ForestPacking, WeightError, edge_key


def _components(n: int, edges) -> list[int]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    # canonical label: smallest vertex of the component
    smallest: dict[int, int] = {}
    for v in range(n):
        r = find(v)
        smallest.setdefault(r, v)
    return [smallest[find(v)] for v in range(n)]


def _check_invariants(p: ForestPacking, n: int, k: int,
                      weights: dict[tuple[int, int], int]) -> None:
    """Full scan of disjointness, liveness, spanning, and maximality."""
    live_weights = {e: w for e, w in weights.items() if w > 0}
    assert {e for e, _ in p.edges()} == set(live_weights)
    for e, w in live_weights.items():
        used = p.used_levels(e)
        assert p.weight(e) == w
        assert len(used) == min(len(used), w)  # no overcommit
        assert len(used) <= min(w, k)
        assert all(0 <= i < k for i in used)
    for i in range(k):
        tree = p.level_forest(i)
        live_here = {
            e
            for e, w in live_weights.items()
            if w - sum(1 for j in p.used_levels(e) if j < i) > 0
        }
        # usage at level i implies liveness there, and tree = used edges
        assert tree == {e for e in live_weights if i in p.used_levels(e)}
        assert tree <= live_here
        comp_tree = _components(n, tree)
        # acyclic: edge count matches component count
        assert len(tree) == n - len(set(comp_tree))
        # spanning: same partition as the whole level graph
        assert comp_tree == _components(n, live_here)
        # maximality: unused live edges close cycles
        for u, v in live_here - tree:
            assert comp_tree[u] == comp_tree[v], (i, (u, v))


def test_first_increment_joins_level_zero():
    p = ForestPacking(2, 4)
    p.increment((0, 1))
    assert p.used_levels((0, 1)) == frozenset({0})


def test_parallel_copies_single_level():
    p = ForestPacking(1, 4)
    for _ in range(3):
        p.increment((0, 1))
    assert p.weight((0, 1)) == 3
    assert p.used_levels((0, 1)) == frozenset({0})


def test_heavy_edge_fills_every_level():
    # each forest can hold one copy of a parallel edge
    p = ForestPacking(3, 2)
    p.apply_delta((0, 1), 5)
    assert p.used_levels((0, 1)) == frozenset({0, 1, 2})
    assert dict(p.union_graph().edges()) == {(0, 1): 3}
    _check_invariants(p, 2, 3, {(0, 1): 5})


def _packed_triangle(k: int = 2) -> ForestPacking:
    p = ForestPacking(k, 3)
    for e in [(0, 1), (1, 2), (0, 2)]:
        p.increment(e)
    return p


def test_triangle_fills_two_levels():
    p = _packed_triangle()
    assert p.level_forest(0) == {(0, 1), (1, 2)}
    assert p.level_forest(1) == {(0, 2)}
    _check_invariants(p, 3, 2, {(0, 1): 1, (1, 2): 1, (0, 2): 1})


def test_triangle_increment_joins_deeper_level():
    p = _packed_triangle()
    p.increment((0, 1))
    assert p.used_levels((0, 1)) == frozenset({0, 1})
    _check_invariants(p, 3, 2, {(0, 1): 2, (1, 2): 1, (0, 2): 1})


def test_triangle_decrement_propagates_deletion():
    # the replacement promoted into T_0 must leave T_1
    p = _packed_triangle()
    p.decrement((0, 1))
    assert p.level_forest(0) == {(1, 2), (0, 2)}
    assert p.level_forest(1) == set()
    assert p.used_levels((0, 2)) == frozenset({0})
    _check_invariants(p, 3, 2, {(1, 2): 1, (0, 2): 1})


def test_decrement_to_empty():
    p = ForestPacking(2, 2)
    p.increment((0, 1))
    p.decrement((0, 1))
    assert p.weight((0, 1)) == 0
    assert list(p.edges()) == []


def test_decrement_unused_copy_is_bookkeeping():
    p = ForestPacking(1, 2)
    p.apply_delta((0, 1), 3)
    before = p.level_forest(0)
    p.decrement((0, 1))
    assert p.weight((0, 1)) == 2
    assert p.level_forest(0) == before


def test_decrement_below_zero_rejected():
    p = ForestPacking(2, 2)
    with pytest.raises(WeightError):
        p.decrement((0, 1))
    p.increment((0, 1))
    with pytest.raises(WeightError):
        p.apply_delta((0, 1), -2)


def test_delta_zero_is_noop():
    p = _packed_triangle()
    snapshot = {i: p.level_forest(i) for i in range(2)}
    p.apply_delta((0, 1), 0)
    assert {i: p.level_forest(i) for i in range(2)} == snapshot


def test_slack_absorbs_bulk_decrement():
    p = ForestPacking(2, 2)
    p.apply_delta((0, 1), 10)
    assert p.used_levels((0, 1)) == frozenset({0, 1})
    handles_before = {e: list(hs) for e, hs in p._handles.items()}
    p.apply_delta((0, 1), -5)
    assert p.weight((0, 1)) == 5
    assert p.used_levels((0, 1)) == frozenset({0, 1})
    assert p._handles == handles_before


def test_union_graph_empty():
    assert ForestPacking(2, 4).union_graph().edge_count == 0


def test_union_graph_triangle():
    h = _packed_triangle().union_graph()
    assert dict(h.edges()) == {(0, 1): 1, (1, 2): 1, (0, 2): 1}


def _cut_weight(weights: dict, side: set[int]) -> int:
    return sum(w for (u, v), w in weights.items() if (u in side) != (v in side))


@pytest.mark.parametrize("seed", range(8))
def test_random_stress_invariants(seed):
    rng = random.Random(seed)
    n, k = 8, 3
    p = ForestPacking(k, n)
    weights: dict[tuple[int, int], int] = {}
    for _ in range(300):
        u, v = rng.sample(range(n), 2)
        e = edge_key(u, v)
        w = weights.get(e, 0)
        delta = rng.choice([1, 1, 2, -1, -2]) if w else rng.choice([1, 2])
        delta = max(delta, -w)
        p.apply_delta(e, delta)
        weights[e] = w + delta
        _check_invariants(p, n, k, weights)


def test_decrement_chain_touches_few_levels():
    rng = random.Random(31)
    n, k = 10, 4
    p = ForestPacking(k, n)
    weights: dict[tuple[int, int], int] = {}
    for _ in range(300):
        u, v = rng.sample(range(n), 2)
        e = edge_key(u, v)
        p.increment(e)
        weights[e] = weights.get(e, 0) + 1
    present = [e for e, w in weights.items() if w]
    for _ in range(150):
        e = rng.choice(present)
        if weights[e] == 0:
            continue
        before = [p.level_forest(i) for i in range(k)]
        p.decrement(e)
        weights[e] -= 1
        after = [p.level_forest(i) for i in range(k)]
        changed = sum(1 for i in range(k) if before[i] != after[i])
        assert changed <= k
        _check_invariants(p, n, k, weights)


def test_increment_changes_at_most_one_tree_edge():
    rng = random.Random(32)
    n, k = 8, 3
    p = ForestPacking(k, n)
    weights: dict[tuple[int, int], int] = {}
    for _ in range(200):
        u, v = rng.sample(range(n), 2)
        e = edge_key(u, v)
        before = [p.level_forest(i) for i in range(k)]
        p.increment(e)
        weights[e] = weights.get(e, 0) + 1
        after = [p.level_forest(i) for i in range(k)]
        diffs = sum(len(before[i] ^ after[i]) for i in range(k))
        assert diffs <= 1


def _random_weighted(rng: random.Random, n: int, max_w: int):
    weights = {}
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.5:
            weights[(u, v)] = rng.randint(1, max_w)
    return weights


def test_cuts_preserved_up_to_capacity():
    # union graph preserves every cut of weight <= k exactly, and never
    # reports less than min(true weight, k)
    rng = random.Random(404)
    for _ in range(15):
        n, k = 7, rng.choice([2, 3, 4])
        weights = _random_weighted(rng, n, max_w=3)
        p = ForestPacking(k, n)
        for e, w in weights.items():
            p.apply_delta(e, w)
        h = p.union_graph()
        hw = dict(h.edges())
        for bits in range(1, 2 ** (n - 1)):
            side = {v for v in range(n) if bits >> v & 1}
            true_cut = _cut_weight(weights, side)
            packed_cut = _cut_weight(hw, side)
            assert packed_cut <= true_cut
            assert packed_cut >= min(true_cut, k)
            if true_cut <= k:
                assert packed_cut == true_cut


def _random_delta(rng: random.Random, n: int, weights: dict) -> tuple:
    u, v = rng.sample(range(n), 2)
    e = edge_key(u, v)
    w = weights.get(e, 0)
    delta = rng.choice([1, 1, 2, 3, -1, -2]) if w else rng.choice([1, 2, 3])
    delta = max(delta, -w)
    weights[e] = w + delta
    return e, delta


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 2, 4])
def test_deep_packing_prefix_is_the_shallow_packing(seed, k):
    # the first k forests of a depth-2k, 4k or 8k packing evolve exactly
    # like a depth-k packing under the same weighted deltas
    rng = random.Random(1000 * k + seed)
    n = rng.randint(4, 9)
    shallow = ForestPacking(k, n)
    deep = [ForestPacking(m * k, n) for m in (2, 4, 8)]
    weights: dict[tuple[int, int], int] = {}
    for _ in range(250):
        e, delta = _random_delta(rng, n, weights)
        shallow.apply_delta(e, delta)
        for p in deep:
            p.apply_delta(e, delta)
        forests = [shallow.level_forest(j) for j in range(k)]
        union = dict(shallow.union_graph().edges())
        for p in deep:
            assert [p.level_forest(j) for j in range(k)] == forests
            for f in weights:
                below = frozenset(j for j in p.used_levels(f) if j < k)
                assert shallow.used_levels(f) == below
            assert dict(p.union_graph(k).edges()) == union
    _check_invariants(shallow, n, k, weights)


def _union_from_usage(p: ForestPacking, k: int) -> dict:
    counts = {}
    for e, _ in p.edges():
        w = sum(1 for j in p.used_levels(e) if j < k)
        if w:
            counts[e] = w
    return counts


@pytest.mark.parametrize("seed", range(3))
def test_prefix_unions_stay_current(seed):
    # unions read before any delta are kept up to date, not rebuilt
    rng = random.Random(seed)
    n, depth = 8, 8
    p = ForestPacking(depth, n)
    prefixes = [1, 2, 3, 5, depth]
    unions = {k: p.union_graph(k) for k in prefixes}
    weights: dict[tuple[int, int], int] = {}
    for _ in range(300):
        e, delta = _random_delta(rng, n, weights)
        p.apply_delta(e, delta)
        for k, g in unions.items():
            assert p.union_graph(k) is g
            assert dict(g.edges()) == _union_from_usage(p, k)
            assert g.vertices == set(range(n))
        assert p.union_graph() is p.union_graph(depth)


def test_union_graph_rejects_bad_prefix():
    p = ForestPacking(4, 3)
    for k in (0, 5):
        with pytest.raises(ValueError):
            p.union_graph(k)
