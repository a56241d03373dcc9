"""Dynamic simple graph and weighted multigraph-by-weight containers."""

from __future__ import annotations

from typing import Iterable, Iterator

EdgeKey = tuple[int, int]


class GraphError(Exception):
    """Base class for graph state violations."""


class DuplicateEdgeError(GraphError):
    """Inserting an edge that is already present."""


class MissingEdgeError(GraphError):
    """Deleting an edge that is not present."""


class WeightError(GraphError):
    """An edge weight would become negative."""


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical unordered key for the vertex pair (u, v)."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


class DynamicGraph:
    """Simple undirected graph on the fixed vertex set [0, n).

    Supports edge insertion/deletion with hard errors on duplicates and
    absences. Callers name an edge by its canonical key (edge_key order); a
    pair that is not one (reversed, a self-loop or out of range) raises
    ValueError before anything changes. The graph tracks the global minimum
    degree in O(1) per update from the number of vertices of each degree.
    The argmin is deterministic (ties broken by smallest vertex id) and is
    found by a scan on demand.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("vertex count must be positive")
        self.n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        # _count[d] is the number of vertices of degree d; _min is the
        # smallest d with _count[d] > 0
        self._count = [0] * n
        self._count[0] = n
        self._min = 0
        self._edge_count = 0

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def insert_edge(self, e: EdgeKey) -> None:
        u, v = e
        if not 0 <= u < v < self.n:
            raise ValueError(f"edge {e} is not a canonical pair in [0, {self.n})")
        if v in self._adj[u]:
            raise DuplicateEdgeError(f"edge {e} already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edge_count += 1
        count = self._count
        for x in (u, v):
            d = len(self._adj[x])
            count[d - 1] -= 1
            count[d] += 1
            if count[self._min] == 0:  # x was the last of degree _min
                self._min += 1

    def delete_edge(self, e: EdgeKey) -> None:
        u, v = e
        if not 0 <= u < v < self.n:
            raise ValueError(f"edge {e} is not a canonical pair in [0, {self.n})")
        if v not in self._adj[u]:
            raise MissingEdgeError(f"edge {e} not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_count -= 1
        count = self._count
        for x in (u, v):
            d = len(self._adj[x])
            count[d + 1] -= 1
            count[d] += 1
            if d < self._min:
                self._min = d

    def neighbors(self, v: int) -> set[int]:
        """Live neighbor set of v; callers must not mutate it."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def min_degree(self) -> int:
        return self._min

    def min_degree_vertex(self) -> int:
        """Smallest-id vertex of minimum degree."""
        m = self._min
        return next(v for v, adj in enumerate(self._adj) if len(adj) == m)

    def edges(self) -> Iterator[EdgeKey]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def audit(self) -> None:
        """Check the graph's bookkeeping against its adjacency.

        Raises AssertionError naming the first broken check and a vertex or
        degree that breaks it: "adjacency" (a self-loop, an out-of-range or
        one-sided neighbor), "degree counts" (_count is not the degree
        histogram), "minimum degree" (_min is not its smallest occupied
        degree) or "edge count".
        """
        n, adj = self.n, self._adj
        histogram = [0] * n
        for u in range(n):
            for v in adj[u]:
                if not (0 <= v < n and v != u and u in adj[v]):
                    raise AssertionError(
                        f"adjacency: vertex {u} lists {v}, which is not a"
                        " distinct in-range vertex listing it back")
            histogram[len(adj[u])] += 1
        for d in range(n):
            if self._count[d] != histogram[d]:
                raise AssertionError(
                    f"degree counts: {self._count[d]} vertices counted at degree"
                    f" {d}, {histogram[d]} have it")
        low = min(range(n), key=lambda v: len(adj[v]))
        if self._min != len(adj[low]):
            raise AssertionError(
                f"minimum degree: held as {self._min}, vertex {low} has"
                f" degree {len(adj[low])}")
        edges = sum(map(len, adj)) // 2
        if self._edge_count != edges:
            raise AssertionError(
                f"edge count: held as {self._edge_count}, the adjacency has {edges}")


class WeightedGraph:
    """Undirected graph with positive integer edge weights.

    The vertex set is explicit so isolated vertices survive, and fixed: a
    frozenset, the one handed in if it is one, and an edge with an endpoint
    outside it is a ValueError. A weight reaching zero removes the edge,
    and a weight going negative is a hard error. Edges are named by their
    canonical keys (edge_key order), taken as given.

    A weights dict handed in is shared, not copied: its owner may keep
    writing it, and then keeps every weight positive and every endpoint in
    the vertex set itself.
    """

    def __init__(self, vertices: Iterable[int] = (),
                 weights: dict[EdgeKey, int] | None = None) -> None:
        self.vertices = frozenset(vertices)  # no copy of a frozenset
        self._w: dict[EdgeKey, int] = {} if weights is None else weights

    def add_weight(self, e: EdgeKey, delta: int) -> None:
        w = self._w.get(e, 0) + delta
        if w < 0:
            raise WeightError(f"weight of {e} would become {w}")
        if w > 0:
            if not (e[0] in self.vertices and e[1] in self.vertices):
                raise ValueError(f"edge {e} has an endpoint outside the vertex set")
            self._w[e] = w
        elif delta:  # del, not pop: a shared dict follows each del
            del self._w[e]

    def weight(self, e: EdgeKey) -> int:
        return self._w.get(e, 0)

    def edges(self) -> Iterator[tuple[EdgeKey, int]]:
        yield from self._w.items()

    @property
    def edge_count(self) -> int:
        return len(self._w)

    def total_weight(self) -> int:
        return sum(self._w.values())

    def copy(self) -> "WeightedGraph":
        return WeightedGraph(self.vertices, dict(self._w))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._w == other._w

    def __repr__(self) -> str:
        return f"WeightedGraph(|V|={len(self.vertices)}, |E|={len(self._w)})"
