"""Dynamic simple graph and weighted-graph container."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncut import (
    DuplicateEdgeError,
    DynamicGraph,
    MissingEdgeError,
    WeightedGraph,
    WeightError,
    edge_key,
)


def test_edge_key_canonicalizes():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        edge_key(2, 2)


def test_single_edge_degrees():
    g = DynamicGraph(2)
    g.insert_edge((0, 1))
    assert g.degree(0) == 1
    assert g.degree(1) == 1
    assert g.min_degree() == 1


def test_completing_triangle():
    g = DynamicGraph(3)
    g.insert_edge((0, 1))
    g.insert_edge((1, 2))
    g.insert_edge((0, 2))
    assert [g.degree(v) for v in range(3)] == [2, 2, 2]


def test_duplicate_insert_rejected():
    g = DynamicGraph(2)
    g.insert_edge((0, 1))
    with pytest.raises(DuplicateEdgeError):
        g.insert_edge((0, 1))


def test_triangle_delete_degrees():
    g = DynamicGraph(3)
    for e in [(0, 1), (1, 2), (0, 2)]:
        g.insert_edge(e)
    g.delete_edge((0, 1))
    assert [g.degree(v) for v in range(3)] == [1, 1, 2]
    assert g.min_degree() == 1


def test_delete_isolates():
    g = DynamicGraph(2)
    g.insert_edge((0, 1))
    g.delete_edge((0, 1))
    assert g.min_degree() == 0


def test_delete_absent_rejected():
    g = DynamicGraph(3)
    with pytest.raises(MissingEdgeError):
        g.delete_edge((0, 1))


def test_min_degree_no_edges():
    assert DynamicGraph(5).min_degree() == 0


def test_min_degree_cycle():
    g = DynamicGraph(5)
    for v in range(5):
        g.insert_edge(edge_key(v, (v + 1) % 5))
    assert g.min_degree() == 2


def test_min_degree_isolated_vertex():
    g = DynamicGraph(5)
    for u in range(4):
        for v in range(u + 1, 4):
            g.insert_edge((u, v))
    assert g.min_degree() == 0
    assert g.min_degree_vertex() == 4


def test_min_degree_vertex_tie_break():
    # ties resolve to the smallest vertex id
    g = DynamicGraph(4)
    g.insert_edge((0, 1))
    g.insert_edge((2, 3))
    assert g.min_degree_vertex() == 0


def test_endpoint_bounds_checked():
    g = DynamicGraph(3)
    with pytest.raises(ValueError):
        g.insert_edge((0, 3))


@pytest.mark.parametrize("update, e", [
    ("insert_edge", (2, 1)),  # reversed: callers pass canonical keys
    ("delete_edge", (2, 1)),
    ("insert_edge", (1, 1)),
    ("insert_edge", (0, 4)),
])
def test_non_canonical_key_rejected_without_change(update, e):
    g = DynamicGraph(4)
    for f in [(0, 1), (1, 2), (0, 2)]:
        g.insert_edge(f)
    before = ([g.degree(v) for v in range(4)], g.min_degree(), g.edge_count)
    with pytest.raises(ValueError):
        getattr(g, update)(e)
    assert ([g.degree(v) for v in range(4)], g.min_degree(), g.edge_count) == before


def test_weighted_add_and_remove():
    w = WeightedGraph(range(2))
    w.add_weight((0, 1), 1)
    assert w.weight((0, 1)) == 1
    w.add_weight((0, 1), 2)
    w.add_weight((0, 1), -3)
    assert w.weight((0, 1)) == 0
    assert (0, 1) not in dict(w.edges())


def test_weighted_negative_rejected():
    w = WeightedGraph(range(2))
    w.add_weight((0, 1), 1)
    with pytest.raises(WeightError):
        w.add_weight((0, 1), -2)


def test_weighted_vertex_set_is_fixed_and_shared():
    # a frozenset handed in is kept as is, and an edge with an endpoint
    # outside it is rejected before anything changes
    centers = frozenset({0, 2})
    w = WeightedGraph(centers)
    assert w.vertices is centers
    w.add_weight((0, 2), 1)
    with pytest.raises(ValueError):
        w.add_weight((0, 1), 1)
    assert dict(w.edges()) == {(0, 2): 1}
    assert w.vertices == {0, 2}


def test_weighted_total_tracks_unit_ops():
    rng = random.Random(11)
    w = WeightedGraph(range(6))
    balance = 0
    for _ in range(500):
        u, v = rng.sample(range(6), 2)
        e = edge_key(u, v)
        if w.weight(e) > 0 and rng.random() < 0.5:
            w.add_weight(e, -1)
            balance -= 1
        else:
            w.add_weight(e, 1)
            balance += 1
    assert w.total_weight() == balance


_STEPS = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()),
    max_size=120,
)


@settings(deadline=None, max_examples=200)
@given(_STEPS)
def test_degrees_and_min_degree_match_full_scan(steps):
    g = DynamicGraph(8)
    mirror: set[tuple[int, int]] = set()
    for u, v, prefer_delete in steps:
        if u == v:
            continue
        e = edge_key(u, v)
        if e in mirror and prefer_delete:
            g.delete_edge(e)
            mirror.discard(e)
        elif e not in mirror:
            g.insert_edge(e)
            mirror.add(e)
        degs = [0] * 8
        for a, b in mirror:
            degs[a] += 1
            degs[b] += 1
        assert all(g.degree(v2) == degs[v2] for v2 in range(8))
        assert g.min_degree() == min(degs)
        assert g.degree(g.min_degree_vertex()) == min(degs)


def test_min_degree_matches_scan_under_churn():
    # long churn moves the minimum up and down through every degree the
    # degree counts can hold, and the answers must match a full scan
    n = 9
    g = DynamicGraph(n)
    rng = random.Random(2024)
    for _ in range(40_000):
        u, v = rng.sample(range(n), 2)
        e = edge_key(u, v)
        if e[1] in g.neighbors(e[0]):
            g.delete_edge(e)
        else:
            g.insert_edge(e)
        expected = min((g.degree(x), x) for x in range(n))
        assert (g.min_degree(), g.min_degree_vertex()) == expected
