"""Static global minimum cut: bound-driven maximum-adjacency contraction
(behind the historical name ``stoer_wagner``) and an exhaustive oracle."""

from __future__ import annotations

from heapq import heappop, heappush
from dataclasses import dataclass

from .graph_core import EdgeKey, WeightedGraph

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class CutResult:
    value: int
    side: frozenset[int]
    cut_edges: frozenset[EdgeKey]


def _crossing_edges(g: WeightedGraph, side: frozenset[int]) -> frozenset[EdgeKey]:
    return frozenset(e for e, _ in g.edges() if (e[0] in side) != (e[1] in side))


def stoer_wagner(g: WeightedGraph) -> CutResult:
    """Exact global minimum cut of a weighted graph.

    Bound-driven maximum-adjacency contraction (Nagamochi, Ono and Ibaraki,
    1994); Stoer and Wagner's algorithm is the special case that contracts
    only the last two vertices of each phase. An upper bound on the cut
    starts at the smallest weighted degree. Each phase runs one
    maximum-adjacency ordering from the smallest vertex id, with each
    vertex's attachment to the prefix capped at the bound the phase
    starts with: it takes the largest capped key, ties broken by vertex
    id. The keys sit in a bucket queue, one id heap per capped key that
    some vertex holds, so a vertex at the cap is never queued again and
    heavy weights cost no more than light ones (the bounded priority
    queue of Henzinger, Noe, Schulz and Strash, 2018). The phase lowers
    the bound to every proper prefix cut it passes, and marks each
    scanned edge (u, x) whose endpoint x has by then gathered an uncapped
    attachment of at least the current bound. In an ordering capped at
    k, that attachment or k, whichever is smaller, is a lower bound on
    the local connectivity of u and x (Nagamochi and Ibaraki, 1992). The
    cap is never below the current bound, so no cut below the bound
    separates them, and contracting every marked edge keeps each such
    cut. The last vertex of a phase is attached with its whole degree,
    which is at least the bound, so every phase contracts at least one
    edge. Merged vertices offer their degree as a cut, and the phases
    stop at one vertex or at a bound of 0. So the bound ends at the
    minimum cut value, and its side is the preimage of the prefix or
    merged vertex that set it.

    Disconnected inputs report value 0 with the smallest isolated vertex as
    the side or, if none is isolated, the component of the smallest vertex
    (the rest of the graph when that is smaller): the first phase runs out
    at the end of that component. Fewer than two vertices is an error.
    Deterministic for a given input: the edge insertion order does not
    change the result.
    """
    if len(g.vertices) < 2:
        raise ValueError("minimum cut needs at least two vertices")
    adj: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
    for (u, v), w in g.edges():
        adj[u][v] = w
        adj[v][u] = w
    merged: dict[int, list[int]] = {v: [v] for v in g.vertices}
    degree = {v: sum(nbrs.values()) for v, nbrs in adj.items()}

    # the upper bound and the side that attains it
    best_value, seed = min((d, v) for v, d in degree.items())
    best_side = [seed]
    while len(adj) > 1 and best_value > 0:
        # maximum-adjacency phase from a deterministic start vertex, keyed
        # by attachments capped at the bound the phase starts with
        cap = best_value
        start = min(adj)
        attach = dict.fromkeys(adj, 0)
        in_a: set[int] = set()
        # buckets[k] is a heap of the ids queued under capped key k; levels
        # is a max-heap (negated) of the keys that have a bucket
        buckets: dict[int, list[int]] = {0: [start]}
        levels = [0]
        prefix: list[int] = []
        prefix_cut = 0
        marked: list[tuple[int, int]] = []
        while levels:
            top = -levels[0]
            bucket = buckets[top]
            if not bucket:
                heappop(levels)
                del buckets[top]
                continue
            u = heappop(bucket)
            ru = attach[u]
            # a vertex is queued once per capped key it takes, so an entry
            # is current exactly when its bucket is the vertex's capped key
            if (ru if ru < cap else cap) != top:
                continue
            in_a.add(u)
            prefix.extend(merged[u])
            # cut(A + u) = cut(A) + deg(u) - 2 * attach(u)
            prefix_cut += degree[u] - 2 * ru
            if prefix_cut < best_value and len(in_a) < len(adj):
                best_value = prefix_cut
                best_side = list(prefix)
            for x, wx in adj[u].items():
                if x not in in_a:
                    rx0 = attach[x]
                    rx = rx0 + wx
                    attach[x] = rx
                    if rx0 < cap:
                        # the capped key rose: queue x under its new key
                        key = rx if rx < cap else cap
                        bucket = buckets.get(key)
                        if bucket is None:
                            buckets[key] = [x]
                            heappush(levels, -key)
                        else:
                            heappush(bucket, x)
                    if rx >= best_value:
                        marked.append((u, x))

        # contract the marked edges, always into the smaller id
        parent: dict[int, int] = {}
        for a, b in marked:
            while a in parent:
                a = parent[a]
            while b in parent:
                b = parent[b]
            if a == b:
                continue
            keep, drop = (a, b) if a < b else (b, a)
            parent[drop] = keep
            nbrs = adj.pop(drop)
            degree[keep] += degree.pop(drop) - 2 * nbrs[keep]
            for y, wy in nbrs.items():
                del adj[y][drop]
                if y == keep:
                    continue
                adj[keep][y] = adj[keep].get(y, 0) + wy
                adj[y][keep] = adj[keep][y]
            merged[keep].extend(merged.pop(drop))
        if len(adj) > 1:
            # each merged vertex is a cut whose side is its preimage
            for v in sorted(adj.keys() & set(parent.values())):
                if degree[v] < best_value:
                    best_value = degree[v]
                    best_side = list(merged[v])

    side = frozenset(best_side)
    other = g.vertices - side
    # the bipartition is symmetric; report the smaller side, ties by order
    if (len(other), sorted(other)) < (len(side), sorted(side)):
        side = other
    cut_edges = _crossing_edges(g, side)
    value = sum(g.weight(e) for e in cut_edges)
    assert value == best_value, "upper bound disagrees with reconstructed cut"
    return CutResult(value, side, cut_edges)


def brute_force_mincut(g: WeightedGraph) -> CutResult:
    """Global minimum cut by enumerating every bipartition.

    Walks the bipartitions in Gray-code order, so each step moves one
    vertex and updates the cut by that vertex's edges; it does not rely
    on ``stoer_wagner``. Limited to 20 vertices. Ties resolve to the
    lexicographically smallest sorted side containing the smallest
    vertex.
    """
    verts = sorted(g.vertices)
    n = len(verts)
    if n < 2:
        raise ValueError("minimum cut needs at least two vertices")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} vertices, got {n}"
        )
    idx = {v: i for i, v in enumerate(verts)}
    # each vertex's neighbours as one bitmask per edge weight
    by_weight: list[dict[int, int]] = [{} for _ in verts]
    degree = [0] * n
    for (u, v), w in g.edges():
        iu, iv = idx[u], idx[v]
        by_weight[iu][w] = by_weight[iu].get(w, 0) | 1 << iv
        by_weight[iv][w] = by_weight[iv].get(w, 0) | 1 << iu
        degree[iu] += w
        degree[iv] += w
    nbrs = [tuple(d.items()) for d in by_weight]

    # the anchor, index 0, is always inside S; the rest of S runs through
    # every subset in Gray-code order, one vertex flipped per step, which
    # moves the cut by that vertex's edges only
    full = (1 << n) - 1
    bits = 1
    value = degree[0]
    best_value = value
    best_side = (verts[0],)
    for step in range(1, 2 ** (n - 1)):
        i = (step & -step).bit_length()
        into = sum(w * (mask & bits).bit_count() for w, mask in nbrs[i])
        bits ^= 1 << i
        if bits >> i & 1:
            value += degree[i] - 2 * into
        else:
            value -= degree[i] - 2 * into
        if value > best_value or bits == full:
            continue
        side = tuple(verts[j] for j in range(n) if bits >> j & 1)
        if value < best_value or side < best_side:
            best_value = value
            best_side = side
    side_set = frozenset(best_side)
    return CutResult(best_value, side_set, _crossing_edges(g, side_set))
