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
    g = WeightedGraph(range(3))
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
    g = WeightedGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_weight((u, v), 1)
    return g


def _cycle(n: int) -> WeightedGraph:
    g = WeightedGraph(range(n))
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
    g = WeightedGraph(range(5))
    for leaf in range(1, 5):
        g.add_weight((0, leaf), 1)
    assert brute_force_mincut(g).value == 1
    assert stoer_wagner(g).value == 1


def test_two_vertex_minimum():
    g = WeightedGraph(range(2))
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
    g = WeightedGraph(range(48))
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
    g = WeightedGraph(range(cliques * size))
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


# -- the capped ordering: keys capped at the bound, held in a bucket queue --


def _check_against_oracles(g: WeightedGraph, name: str) -> None:
    cut = stoer_wagner(g)
    assert cut.value == brute_force_mincut(g).value, name
    assert cut.value == _flow_mincut_value(g), name
    _assert_consistent(g, cut)


def _with_vertices(g: WeightedGraph, extra) -> WeightedGraph:
    # the same weighted graph on a vertex set grown by extra
    return WeightedGraph(g.vertices.union(extra), dict(g.edges()))


def _heavy_cliques(rng: random.Random, sizes: list[int], max_w: int,
                   bridges: int) -> WeightedGraph:
    # cliques with weights up to max_w whose attachments climb far above
    # the bound, chained by unit bridges with random endpoints
    g = WeightedGraph(range(sum(sizes)))
    base = 0
    blocks = []
    for size in sizes:
        block = list(range(base, base + size))
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                g.add_weight((u, v), rng.randint(1, max_w))
        blocks.append(block)
        base += size
    for a, b in zip(blocks, blocks[1:]):
        for _ in range(bridges):
            g.add_weight(edge_key(rng.choice(a), rng.choice(b)), 1)
    return g


def test_capped_attachments_far_above_the_bound():
    rng = random.Random(1810)
    for trial in range(60):
        sizes = [rng.randint(3, 6) for _ in range(rng.randint(2, 3))]
        g = _heavy_cliques(rng, sizes, rng.choice([5, 10]), rng.randint(1, 3))
        _check_against_oracles(g, f"trial {trial}")


def test_bound_drops_inside_a_phase():
    # the first phase starts with the bound at the minimum degree (at least
    # 50); once it has taken the start's clique the prefix cut drops the
    # bound to the bridge weight, and the other clique's vertices then
    # gather keys between that bound and the phase's cap
    for bridges in ((1, 6), (1, 6, 2, 7), (0, 6, 0, 7, 5, 11)):
        g = WeightedGraph(range(12))
        for base in (0, 6):
            for u in range(base, base + 6):
                for v in range(u + 1, base + 6):
                    g.add_weight((u, v), 10)
        for u, v in zip(bridges[::2], bridges[1::2]):
            g.add_weight((u, v), 1)
        _check_against_oracles(g, str(bridges))
        cut = stoer_wagner(g)
        assert cut.value == len(bridges) // 2
        assert cut.side == frozenset(range(6))
    rng = random.Random(2018)
    for trial in range(40):
        g = _heavy_cliques(rng, [rng.randint(4, 6), rng.randint(4, 6)], 10,
                           rng.randint(1, 4))
        # a light pendant on vertex 0 sets the first cap, often below the
        # clique attachments the phase gathers
        pendant = max(g.vertices) + 1
        g = _with_vertices(g, [pendant])
        g.add_weight((0, pendant), rng.randint(1, 9))
        _check_against_oracles(g, f"trial {trial}")


def test_bounds_of_one_and_zero():
    rng = random.Random(10)
    for trial in range(40):
        n = rng.randint(2, 14)
        # a random tree: every edge is a cut of value 1, so every cap is 1
        tree = WeightedGraph(range(n))
        for v in range(1, n):
            tree.add_weight((rng.randrange(v), v), 1)
        _check_against_oracles(tree, f"tree {trial}")
        assert stoer_wagner(tree).value == 1
        # minimum degree 2 or more, one bridge: the bound falls to 1 and
        # later phases run capped at 1
        g = _heavy_cliques(rng, [rng.randint(3, 6), rng.randint(3, 6)], 3, 1)
        _check_against_oracles(g, f"bridge {trial}")
        assert stoer_wagner(g).value == 1
        # a second component: the bound falls to 0 inside the first phase
        split = _heavy_cliques(rng, [rng.randint(2, 5)], 4, 0)
        offset = max(split.vertices) + 1
        second = _heavy_cliques(rng, [rng.randint(2, 5)], 4, 0)
        split = _with_vertices(split, (v + offset for v in second.vertices))
        for (u, v), w in second.edges():
            split.add_weight((u + offset, v + offset), w)
        _check_against_oracles(split, f"split {trial}")
        assert stoer_wagner(split).value == 0
    # an isolated vertex: the bound starts at 0 and no phase runs
    g = _with_vertices(_heavy_cliques(rng, [5], 10, 0), [9])
    cut = stoer_wagner(g)
    assert (cut.value, cut.side, cut.cut_edges) == (0, frozenset({9}), frozenset())


def test_ties_at_the_cap_broken_by_id():
    # weight-10 cliques around a light pendant: the cap is the pendant's
    # degree, every clique vertex reaches it after one scan, and from then
    # on only the id rule orders them
    for size, pendant in ((5, 1), (6, 3), (8, 9)):
        g = _with_vertices(_complete(size), [size])
        for e, _ in list(g.edges()):
            g.add_weight(e, 9)
        g.add_weight((0, size), pendant)
        _check_against_oracles(g, f"K{size}+{pendant}")
        assert stoer_wagner(g).side == frozenset({size})
    # every bridge of a chain of weight-10 cliques is a minimum cut below
    # the cap, so which one is reported rests on the tie rule alone; it
    # must not depend on the order the graph was built in
    rng = random.Random(33)
    for trial in range(12):
        g = _heavy_cliques(rng, [rng.randint(3, 5) for _ in range(4)], 10, 2)
        _check_against_oracles(g, f"chain {trial}")
        for h in (_sparse_ids(rng, g), g):
            first = stoer_wagner(h)
            for _ in range(3):
                assert stoer_wagner(_rebuilt(rng, h)) == first


def _two_clusters(seed: int) -> WeightedGraph:
    # two 24-vertex clusters on a shuffled split, unit weights on odd seeds
    rng = random.Random(seed)
    order = list(range(48))
    rng.shuffle(order)
    max_w = 1 if seed % 2 else 4
    g = WeightedGraph(range(48))
    for half in (order[:24], order[24:]):
        for i, u in enumerate(half):
            for v in half[i + 1:]:
                if rng.random() < 0.35:
                    g.add_weight(edge_key(u, v), rng.randint(1, max_w))
    for _ in range(1 + seed % 4):
        g.add_weight(edge_key(rng.choice(order[:24]), rng.choice(order[24:])), 1)
    return g


def _three_clusters(seed: int) -> WeightedGraph:
    # a chain of three 16-vertex clusters whose two bridge sets tie, so the
    # side reported depends on the ordering's tie rule
    rng = random.Random(seed)
    order = list(range(48))
    rng.shuffle(order)
    parts = (order[:16], order[16:32], order[32:])
    g = WeightedGraph(range(48))
    for part in parts:
        for i, u in enumerate(part):
            for v in part[i + 1:]:
                if rng.random() < 0.5:
                    g.add_weight(edge_key(u, v), 1)
    k = 1 + seed % 3
    for a, b in ((parts[0], parts[1]), (parts[1], parts[2])):
        for u, v in zip(rng.sample(a, k), rng.sample(b, k)):
            g.add_weight(edge_key(u, v), 1)
    return g


# recorded from the uncapped heap ordering; a change of side here changes
# the witnesses `dyncut run --report-edges` prints. On the three-cluster
# seeds 2, 8 and 13 a tie rule of largest id first reports the other end
# cluster, and a cap at half the bound loses the cut of two-cluster seed 33
_PINNED = [
    (_two_clusters, 1, 2, (0, 1, 3, 4, 6, 7, 8, 10, 13, 16, 18, 23, 24, 25,
                           27, 28, 30, 31, 36, 39, 41, 42, 43, 47)),
    (_two_clusters, 3, 4, (6,)),
    (_two_clusters, 4, 1, (0, 1, 3, 4, 5, 6, 8, 9, 14, 15, 17, 18, 19, 23,
                           24, 25, 26, 30, 33, 35, 37, 41, 44, 45)),
    (_two_clusters, 33, 2, (0, 2, 3, 5, 6, 7, 8, 12, 19, 21, 22, 24, 25, 26,
                            27, 29, 31, 35, 37, 38, 43, 44, 46, 47)),
    (_three_clusters, 2, 3, (2, 3, 5, 10, 13, 16, 19, 23, 25, 27, 32, 38,
                             42, 43, 44, 46)),
    (_three_clusters, 5, 3, (19,)),
    (_three_clusters, 8, 3, (1, 2, 5, 8, 12, 13, 14, 15, 23, 24, 25, 29, 31,
                             32, 34, 44)),
    (_three_clusters, 13, 2, (3, 5, 6, 10, 12, 15, 17, 20, 23, 28, 29, 31,
                              32, 33, 40, 47)),
]


@pytest.mark.parametrize("make,seed,value,side", _PINNED,
                         ids=[f"{m.__name__[1:]}-{s}" for m, s, _, _ in _PINNED])
def test_pinned_answers_on_48_vertex_cluster_graphs(make, seed, value, side):
    g = make(seed)
    cut = stoer_wagner(g)
    assert cut.value == value == _flow_mincut_value(g)
    assert cut.side == frozenset(side)
    _assert_consistent(g, cut)
