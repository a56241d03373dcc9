"""Static minimum cut: deterministic algorithm vs exhaustive enumeration."""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncut import WeightedGraph, brute_force_mincut, edge_key, stoer_wagner


def _cut_weight(g: WeightedGraph, side: frozenset) -> int:
    return sum(w for (u, v), w in g.edges() if (u in side) != (v in side))


def _triangle_234() -> WeightedGraph:
    g = WeightedGraph()
    g.add_weight((0, 1), 2)
    g.add_weight((0, 2), 3)
    g.add_weight((1, 2), 4)
    return g


def test_weighted_triangle_value_and_side():
    cut = stoer_wagner(_triangle_234())
    assert cut.value == 5
    assert cut.side == frozenset({0})


def test_brute_force_weighted_triangle():
    cut = brute_force_mincut(_triangle_234())
    assert cut.value == 5
    assert cut.side == frozenset({0})


def test_disconnected_returns_zero():
    g = WeightedGraph(range(4))
    g.add_weight((0, 1), 1)
    g.add_weight((2, 3), 1)
    assert stoer_wagner(g).value == 0
    assert brute_force_mincut(g).value == 0
    # the first phase runs out at the end of the smallest vertex's component
    three = WeightedGraph(range(6))
    for e in ((0, 1), (2, 3), (4, 5)):
        three.add_weight(e, 1)
    cut = stoer_wagner(three)
    assert (cut.value, cut.side, cut.cut_edges) == (0, frozenset({0, 1}), frozenset())
    # an isolated vertex seeds the bound at 0
    isolated = WeightedGraph(range(4))
    for e in ((0, 1), (1, 2), (0, 2)):
        isolated.add_weight(e, 1)
    cut = stoer_wagner(isolated)
    assert (cut.value, cut.side, cut.cut_edges) == (0, frozenset({3}), frozenset())


def _complete(n: int) -> WeightedGraph:
    g = WeightedGraph()
    for u in range(n):
        for v in range(u + 1, n):
            g.add_weight((u, v), 1)
    return g


def _cycle(n: int) -> WeightedGraph:
    g = WeightedGraph()
    for v in range(n):
        g.add_weight(edge_key(v, (v + 1) % n), 1)
    return g


def test_k4_value_three():
    assert brute_force_mincut(_complete(4)).value == 3
    assert stoer_wagner(_complete(4)).value == 3


def test_c6_value_two():
    assert brute_force_mincut(_cycle(6)).value == 2
    assert stoer_wagner(_cycle(6)).value == 2


def test_star_value_one():
    g = WeightedGraph()
    for leaf in range(1, 5):
        g.add_weight((0, leaf), 1)
    assert brute_force_mincut(g).value == 1
    assert stoer_wagner(g).value == 1


def test_two_vertex_minimum():
    g = WeightedGraph()
    g.add_weight((0, 1), 7)
    for fn in (stoer_wagner, brute_force_mincut):
        cut = fn(g)
        assert cut.value == 7
        assert cut.cut_edges == frozenset({(0, 1)})


def test_single_vertex_rejected():
    g = WeightedGraph([0])
    with pytest.raises(ValueError):
        stoer_wagner(g)
    with pytest.raises(ValueError):
        brute_force_mincut(g)


def test_brute_force_size_limit():
    with pytest.raises(ValueError):
        brute_force_mincut(WeightedGraph(range(21)))


def _random_graph(rng: random.Random, n: int, density: float = 0.5,
                  max_w: int = 4) -> WeightedGraph:
    g = WeightedGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                g.add_weight((u, v), rng.randint(1, max_w))
    return g


def test_matches_enumeration_on_random_graphs():
    rng = random.Random(20240601)
    for trial in range(200):
        n = rng.randint(2, 10)
        g = _random_graph(rng, n, density=rng.uniform(0.2, 0.9))
        expect = brute_force_mincut(g)
        got = stoer_wagner(g)
        assert got.value == expect.value, f"trial {trial}"
        assert _cut_weight(g, got.side) == got.value
        assert got.cut_edges == frozenset(
            e for e, _ in g.edges() if (e[0] in got.side) != (e[1] in got.side)
        )


def test_reported_side_is_proper():
    rng = random.Random(99)
    for _ in range(50):
        g = _random_graph(rng, 8)
        for fn in (stoer_wagner, brute_force_mincut):
            cut = fn(g)
            assert 0 < len(cut.side) < 8


def _contract(g: WeightedGraph, a: int, b: int) -> WeightedGraph:
    # merge b into a, dropping the self-loop
    out = WeightedGraph(v for v in g.vertices if v != b)
    for (u, v), w in g.edges():
        u2 = a if u == b else u
        v2 = a if v == b else v
        if u2 != v2:
            out.add_weight(edge_key(u2, v2), w)
    return out


def test_contraction_never_decreases_value():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(3, 8)
        g = _random_graph(rng, n, density=0.7)
        base = brute_force_mincut(g).value
        a, b = rng.sample(range(n), 2)
        merged = _contract(g, min(a, b), max(a, b))
        assert brute_force_mincut(merged).value >= base


# -- an independent oracle at the sizes the engine and the benchmark use ----


def _max_flow(g: WeightedGraph, s: int, t: int, limit: int) -> int:
    """s-t maximum flow by shortest augmenting paths, stopped at ``limit``."""
    residual: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
    for (u, v), w in g.edges():
        residual[u][v] = w
        residual[v][u] = w
    flow = 0
    while flow < limit:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            x = queue.popleft()
            for y, c in residual[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if t not in parent:
            break
        path = []
        y = t
        while y != s:
            path.append((parent[y], y))
            y = parent[y]
        push = min(residual[x][y] for x, y in path)
        for x, y in path:
            residual[x][y] -= push
            residual[y][x] += push
        flow += push
    return flow


def _flow_mincut_value(g: WeightedGraph) -> int:
    # every cut separates the smallest vertex from some t, so the global
    # minimum is the least of those s-t flows; a flow only needs computing
    # up to the best found so far
    s = min(g.vertices)
    best = sum(w for _, w in g.edges())
    for t in sorted(g.vertices - {s}):
        best = min(best, _max_flow(g, s, t, best))
    return best


def _assert_consistent(g: WeightedGraph, cut) -> None:
    assert 0 < len(cut.side) < len(g.vertices)
    assert cut.side <= g.vertices
    assert cut.cut_edges == frozenset(
        e for e, _ in g.edges() if (e[0] in cut.side) != (e[1] in cut.side)
    )
    assert _cut_weight(g, cut.side) == cut.value


def _planted(rng: random.Random, n: int, bridges: int) -> WeightedGraph:
    # two random weighted clusters on a shuffled split, joined by bridges
    order = list(range(n))
    rng.shuffle(order)
    halves = (order[: n // 2], order[n // 2:])
    g = WeightedGraph(range(n))
    for half in halves:
        for i, u in enumerate(half):
            for v in half[i + 1:]:
                if rng.random() < 0.4:
                    g.add_weight(edge_key(u, v), rng.randint(1, 3))
    for _ in range(bridges):
        g.add_weight(edge_key(rng.choice(halves[0]), rng.choice(halves[1])), 1)
    return g


def _lured(rng: random.Random, n: int, bridges: int) -> WeightedGraph:
    # vertex 0 reaches its own cluster by light edges and the other one by a
    # heavier edge, so a maximum-adjacency ordering from 0 fills the wrong
    # cluster first and none of its prefixes is the minimum cut
    rest = list(range(1, n))
    rng.shuffle(rest)
    home, away = rest[: n // 2 - 1], rest[n // 2 - 1:]
    g = WeightedGraph(range(n))
    for half in (home, away):
        for i, u in enumerate(half):
            for v in half[i + 1:]:
                if rng.random() < 0.5:
                    g.add_weight(edge_key(u, v), rng.randint(2, 3))
    for v in rng.sample(home, bridges + 3):
        g.add_weight((0, v), 1)
    g.add_weight((0, away[0]), 2)
    for _ in range(bridges):
        g.add_weight(edge_key(rng.choice(home), rng.choice(away)), 1)
    return g


def _weighted_path(rng: random.Random, n: int) -> WeightedGraph:
    g = WeightedGraph(range(n))
    for v in range(n - 1):
        g.add_weight((v, v + 1), rng.randint(1, 9))
    return g


def _large_cases():
    rng = random.Random(20261018)
    for n in (20, 33, 48, 64):
        for _ in range(3):
            yield f"random-{n}", _random_graph(rng, n, density=rng.uniform(0.1, 0.3),
                                               max_w=6)
        for bridges in (1, 2, 3, 4):
            yield f"planted-{n}-{bridges}", _planted(rng, n, bridges)
            yield f"lured-{n}-{bridges}", _lured(rng, n, bridges)
        yield f"cycle-{n}", _cycle(n)
        yield f"path-{n}", _weighted_path(rng, n)
    for n in (20, 48, 64):
        yield f"complete-{n}", _complete(n)


def test_matches_max_flow_oracle_at_engine_sizes():
    for name, g in _large_cases():
        cut = stoer_wagner(g)
        assert cut.value == _flow_mincut_value(g), name
        _assert_consistent(g, cut)


def test_matches_max_flow_oracle_on_small_planted_graphs():
    # small sparse clusters often have a cut below the minimum degree that
    # a maximum-adjacency ordering does not pass, so a contraction bound
    # that is slightly too loose loses it here (one graph in a few hundred)
    rng = random.Random(515)
    for trial in range(4000):
        g = _planted(rng, rng.randint(6, 12), rng.randint(1, 4))
        assert stoer_wagner(g).value == _flow_mincut_value(g), f"trial {trial}"


@pytest.mark.parametrize("bridges", [1, 2, 3, 4])
def test_two_cliques_cut_at_their_bridges(bridges):
    rng = random.Random(bridges)
    g = WeightedGraph()
    for base in (0, 24):
        for u in range(base, base + 24):
            for v in range(u + 1, base + 24):
                g.add_weight((u, v), 1)
    ends = zip(rng.sample(range(24), bridges), rng.sample(range(24, 48), bridges))
    expected = frozenset(edge_key(u, v) for u, v in ends)
    for e in expected:
        g.add_weight(e, 1)
    cut = stoer_wagner(g)
    assert cut.value == bridges
    assert cut.cut_edges == expected
    # both sides have 24 vertices: ties go to the smaller sorted side
    assert cut.side == frozenset(range(24))


def _rebuilt(rng: random.Random, g: WeightedGraph) -> WeightedGraph:
    # the same weighted graph with vertices and unit weight steps in a new order
    verts = sorted(g.vertices)
    rng.shuffle(verts)
    steps = [e for e, w in g.edges() for _ in range(w)]
    rng.shuffle(steps)
    out = WeightedGraph(verts)
    for e in steps:
        out.add_weight(e, 1)
    return out


def _sparse_ids(rng: random.Random, g: WeightedGraph) -> WeightedGraph:
    # quotient graphs name their vertices by centers, not by 0..n-1
    ids = rng.sample(range(1000), len(g.vertices))
    out = WeightedGraph(ids)
    for (u, v), w in g.edges():
        out.add_weight(edge_key(ids[u], ids[v]), w)
    return out


def _clique_chain(rng: random.Random, cliques: int, size: int) -> WeightedGraph:
    # every bridge is a minimum cut below the minimum degree, so which one a
    # run reports hangs on how it breaks ties
    g = WeightedGraph()
    for c in range(cliques):
        base = c * size
        for u in range(base, base + size):
            for v in range(u + 1, base + size):
                g.add_weight((u, v), 1)
        if c:
            g.add_weight((rng.randrange(base - size, base),
                          rng.randrange(base, base + size)), 1)
    return g


def test_result_does_not_depend_on_insertion_order():
    rng = random.Random(7)
    graphs = [_cycle(24), _complete(12)]
    graphs += [_random_graph(rng, rng.randint(12, 40), density=0.3,
                             max_w=rng.choice([1, 3])) for _ in range(4)]
    graphs += [_planted(rng, 40, b) for b in (1, 3)]
    graphs += [_clique_chain(rng, rng.randint(3, 7), rng.randint(3, 6))
               for _ in range(12)]
    for g in [_sparse_ids(rng, g) for g in graphs]:
        first = stoer_wagner(g)
        for _ in range(5):
            assert stoer_wagner(_rebuilt(rng, g)) == first


_EDGES = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(1, 4)),
    max_size=40,
)


@settings(deadline=None, max_examples=200)
@given(n=st.integers(2, 12), edges=_EDGES, unit=st.booleans())
def test_property_matches_enumeration(n, edges, unit):
    # sparse lists leave graphs disconnected; unit weights make ties common
    g = WeightedGraph(range(n))
    for u, v, w in edges:
        if u < n and v < n and u != v:
            g.add_weight(edge_key(u, v), 1 if unit else w)
    cut = stoer_wagner(g)
    assert cut.value == brute_force_mincut(g).value
    _assert_consistent(g, cut)
