"""Dynamic simple graph and weighted multigraph-by-weight containers."""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

EdgeKey = tuple[int, int]

# DynamicGraph rebuilds its min-degree heap from the live degrees once the
# heap holds more than this many entries per vertex.
_HEAP_SLACK = 4


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
    absences, and tracks the global minimum degree with a deterministic
    argmin (ties broken by smallest vertex id).
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("vertex count must be positive")
        self.n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        # Lazy heap of (degree, vertex); entries are stale once the vertex
        # degree moves on. Cleaned on peek, and rebuilt from the live
        # degrees when stale entries pile up.
        self._heap: list[tuple[int, int]] = []
        self._rebuild_heap()
        self._edge_count = 0

    def _rebuild_heap(self) -> None:
        self._heap = [(len(adj), v) for v, adj in enumerate(self._adj)]
        heapq.heapify(self._heap)

    def _push_degrees(self, u: int, v: int) -> None:
        heap = self._heap
        heapq.heappush(heap, (len(self._adj[u]), u))
        heapq.heappush(heap, (len(self._adj[v]), v))
        if len(heap) > _HEAP_SLACK * self.n:
            self._rebuild_heap()

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def insert_edge(self, e: EdgeKey) -> None:
        u, v = edge_key(*e)
        self._check_vertex(u)
        self._check_vertex(v)
        if v in self._adj[u]:
            raise DuplicateEdgeError(f"edge {e} already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edge_count += 1
        self._push_degrees(u, v)

    def delete_edge(self, e: EdgeKey) -> None:
        u, v = edge_key(*e)
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            raise MissingEdgeError(f"edge {e} not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_count -= 1
        self._push_degrees(u, v)

    def neighbors(self, v: int) -> set[int]:
        """Live neighbor set of v; callers must not mutate it."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def _min_entry(self) -> tuple[int, int]:
        while True:
            deg, v = self._heap[0]
            if len(self._adj[v]) == deg:
                return deg, v
            heapq.heappop(self._heap)

    def min_degree(self) -> int:
        return self._min_entry()[0]

    def min_degree_vertex(self) -> int:
        """Smallest-id vertex of minimum degree."""
        return self._min_entry()[1]

    def edges(self) -> Iterator[EdgeKey]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return self._edge_count


class WeightedGraph:
    """Undirected graph with positive integer edge weights.

    The vertex set is explicit so isolated vertices survive; edge endpoints
    are added to it automatically. A weight reaching zero removes the edge,
    and a weight going negative is a hard error.
    """

    def __init__(self, vertices: Iterable[int] = ()) -> None:
        self.vertices: set[int] = set(vertices)
        self._w: dict[EdgeKey, int] = {}

    def add_weight(self, e: EdgeKey, delta: int) -> None:
        key = edge_key(*e)
        w = self._w.get(key, 0) + delta
        if w < 0:
            raise WeightError(f"weight of {key} would become {w}")
        if w == 0:
            self._w.pop(key, None)
        else:
            self._w[key] = w
            self.vertices.add(key[0])
            self.vertices.add(key[1])

    def weight(self, e: EdgeKey) -> int:
        return self._w.get(edge_key(*e), 0)

    def edges(self) -> Iterator[tuple[EdgeKey, int]]:
        yield from self._w.items()

    @property
    def edge_count(self) -> int:
        return len(self._w)

    def total_weight(self) -> int:
        return sum(self._w.values())

    def copy(self) -> "WeightedGraph":
        g = WeightedGraph(self.vertices)
        g._w = dict(self._w)
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._w == other._w

    def __repr__(self) -> str:
        return f"WeightedGraph(|V|={len(self.vertices)}, |E|={len(self._w)})"
