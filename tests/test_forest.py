"""Dynamic spanning forest: delta contract and component partition oracle."""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncut import UNTOUCHED, DynamicForest, edge_key


def _bfs_components(n: int, edges) -> list[int]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * n
    label = 0
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root] = label
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if comp[y] < 0:
                    comp[y] = label
                    queue.append(y)
        label += 1
    return comp


def _partition(comp: list[int]) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for v, c in enumerate(comp):
        groups.setdefault(c, set()).add(v)
    return {frozenset(g) for g in groups.values()}


def _forest_partition(f: DynamicForest, n: int) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(f._label[v], set()).add(v)
    return {frozenset(g) for g in groups.values()}


def _state(f: DynamicForest):
    # neighbour lists in order: the order decides which spare replaces a cut
    return ([list(d) for d in f._tree], [list(d) for d in f._spare],
            list(f._label), dict(f._size))


def test_insert_joins_disconnected():
    f = DynamicForest(3)
    assert f.insert((0, 1)) is True
    assert f.connected(0, 1)


def test_insert_spare_closes_cycle():
    f = DynamicForest(3)
    f.insert((0, 1))
    f.insert((1, 2))
    assert f.insert((0, 2)) is False
    assert set(f.tree_edges()) == {(0, 1), (1, 2)}


def test_insert_rejects_non_key_pair():
    f = DynamicForest(3)
    f.insert((0, 1))
    before = _state(f)
    # reversed, a self-loop, out of range on either side
    for e in [(1, 0), (1, 1), (0, 3), (-1, 0), (2, 5)]:
        with pytest.raises(ValueError):
            f.insert(e)
        assert _state(f) == before


def test_insert_rejects_present_edge():
    f = DynamicForest(3)
    f.insert((0, 1))
    f.insert((1, 2))
    f.insert((0, 2))  # spare
    before = _state(f)
    for e in [(0, 1), (1, 2), (0, 2)]:
        with pytest.raises(ValueError):
            f.insert(e)
        assert _state(f) == before


def test_deleted_edge_can_return():
    f = DynamicForest(2)
    f.insert((0, 1))
    f.delete((0, 1))
    assert f.insert((0, 1)) is True
    assert set(f.tree_edges()) == {(0, 1)}


def test_triangle_replacement():
    f = DynamicForest(3)
    f.insert((0, 1))
    f.insert((1, 2))
    f.insert((0, 2))
    res = f.delete((0, 1))
    assert res.removed is True
    assert res.replacement == (0, 2)
    assert f.connected(0, 1)
    assert set(f.tree_edges()) == {(1, 2), (0, 2)}


def test_delete_spare_untouched():
    f = DynamicForest(3)
    f.insert((0, 1))
    f.insert((1, 2))
    f.insert((0, 2))
    assert f.delete((0, 2)) is UNTOUCHED
    assert set(f.tree_edges()) == {(0, 1), (1, 2)}


def test_delete_bridge_disconnects():
    f = DynamicForest(2)
    f.insert((0, 1))
    res = f.delete((0, 1))
    assert res.removed is True
    assert res.replacement is None
    assert not f.connected(0, 1)


def test_delete_absent_edge_rejected():
    f = DynamicForest(3)
    f.insert((0, 1))
    f.insert((1, 2))
    f.delete((0, 1))
    before = _state(f)
    # never inserted, reversed, already deleted, a self-loop, out of range
    for e in [(0, 2), (2, 1), (0, 1), (1, 1), (0, 9), (-1, 1)]:
        with pytest.raises(KeyError):
            f.delete(e)
        assert _state(f) == before


def test_connected_empty():
    assert not DynamicForest(4).connected(0, 1)


def test_connected_path():
    f = DynamicForest(3)
    f.insert((0, 1))
    f.insert((1, 2))
    assert f.connected(0, 2)


def _random_run(seed: int, n: int, steps: int, check_pairs: bool = False) -> None:
    rng = random.Random(seed)
    f = DynamicForest(n)
    live: set[tuple[int, int]] = set()
    for _ in range(steps):
        before = set(f.tree_edges())
        if live and rng.random() < 0.45:
            e = rng.choice(sorted(live))
        else:
            e = edge_key(*rng.sample(range(n), 2))
        if e in live:
            res = f.delete(e)
            live.discard(e)
            after = set(f.tree_edges())
            if res is UNTOUCHED:
                assert after == before
            else:
                removed = before - after
                added = after - before
                assert removed == {e}
                assert len(added) <= 1
                if res.replacement is not None:
                    assert added == {res.replacement}
        else:
            f.insert(e)
            live.add(e)
            after = set(f.tree_edges())
            assert len(after - before) <= 1
            assert before <= after
        comp = _bfs_components(n, live)
        assert _forest_partition(f, n) == _partition(comp)
        # acyclicity: tree edge count == n - number of components
        assert len(after) == n - len(set(comp))
        if check_pairs:
            for u in range(n):
                for v in range(u + 1, n):
                    assert f.connected(u, v) == (comp[u] == comp[v])


def test_partition_matches_bfs_oracle():
    for seed in range(10):
        _random_run(seed, n=12, steps=150)


def test_connected_agrees_on_all_pairs():
    _random_run(777, n=20, steps=200, check_pairs=True)


_OPS = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=80)


@settings(deadline=None, max_examples=150)
@given(_OPS)
def test_property_random_sequences(pairs):
    f = DynamicForest(10)
    live: set[tuple[int, int]] = set()
    for u, v in pairs:
        if u == v:
            continue
        e = edge_key(u, v)
        if e in live:
            f.delete(e)
            live.discard(e)
        else:
            f.insert(e)
            live.add(e)
        comp = _bfs_components(10, live)
        assert _forest_partition(f, 10) == _partition(comp)
