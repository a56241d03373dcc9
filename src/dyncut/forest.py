"""Dynamic spanning forest of a simple graph whose edges are named by key."""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graph_core import EdgeKey


class DeleteResult(NamedTuple):
    """Outcome of an edge deletion.

    removed is True when the edge was a forest edge; replacement is the
    key of the spare edge promoted into the forest to reconnect the split,
    or None. A spare deletion reports (False, None).
    """

    removed: bool
    replacement: EdgeKey | None


UNTOUCHED = DeleteResult(False, None)


class DynamicForest:
    """Spanning forest of a dynamic simple graph on vertices [0, n).

    Edges are named by their canonical keys (u, v) with u < v, and each
    pair is present at most once. Components carry integer labels so
    connectivity checks are O(1); structural changes relabel one side and
    deletions of forest edges search the detached side for a reconnecting
    spare edge.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("vertex count must be positive")
        self.n = n
        self._label = list(range(n))
        self._size: dict[int, int] = {v: 1 for v in range(n)}
        self._next_label = n
        # per vertex, its tree and its spare neighbours in insertion order
        self._tree: list[dict[int, None]] = [{} for _ in range(n)]
        self._spare: list[dict[int, None]] = [{} for _ in range(n)]

    def connected(self, u: int, v: int) -> bool:
        return self._label[u] == self._label[v]

    def tree_edges(self) -> Iterator[EdgeKey]:
        for u, nbrs in enumerate(self._tree):
            for v in nbrs:
                if u < v:
                    yield u, v

    def insert(self, e: EdgeKey) -> bool:
        """Add edge e; returns True iff it joined the forest."""
        u, v = e
        if not 0 <= u < v < self.n:
            raise ValueError(f"edge {e} is not a canonical pair in [0, {self.n})")
        if v in self._tree[u] or v in self._spare[u]:
            raise ValueError(f"edge {e} is already present")
        lu, lv = self._label[u], self._label[v]
        if lu == lv:
            self._spare[u][v] = None
            self._spare[v][u] = None
            return False
        if self._size[lu] < self._size[lv]:
            self._relabel(u, lv)
        else:
            self._relabel(v, lu)
        self._tree[u][v] = None
        self._tree[v][u] = None
        return True

    def delete(self, e: EdgeKey) -> DeleteResult:
        """Remove edge e; promotes a reconnecting spare when one exists."""
        u, v = e
        if not (0 <= u < v < self.n and (v in self._tree[u] or v in self._spare[u])):
            raise KeyError(f"edge {e} is not present")
        if v in self._spare[u]:
            del self._spare[u][v]
            del self._spare[v][u]
            return UNTOUCHED
        del self._tree[u][v]
        del self._tree[v][u]
        side = self._reach(v)
        for x in side:
            for y in self._spare[x]:
                if y not in side:
                    # reconnects the split; component labels never changed
                    del self._spare[x][y]
                    del self._spare[y][x]
                    self._tree[x][y] = None
                    self._tree[y][x] = None
                    return DeleteResult(True, (x, y) if x < y else (y, x))
        # genuine split: give the detached side a fresh label
        old = self._label[v]
        fresh = self._next_label
        self._next_label += 1
        for x in side:
            self._label[x] = fresh
        self._size[fresh] = len(side)
        self._size[old] -= len(side)
        return DeleteResult(True, None)

    def _reach(self, root: int) -> set[int]:
        seen = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in self._tree[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    def _relabel(self, root: int, target: int) -> None:
        side = self._reach(root)
        old = self._label[root]
        for x in side:
            self._label[x] = target
        self._size[target] += len(side)
        del self._size[old]
