"""Dynamic spanning forest over a handle-identified multigraph."""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graph_core import EdgeKey, edge_key


class DeleteResult(NamedTuple):
    """Outcome of a handle deletion.

    removed is True when the handle was a forest edge; replacement is the
    handle id promoted into the forest to reconnect the split, or None.
    A spare deletion reports (False, None).
    """

    removed: bool
    replacement: int | None


UNTOUCHED = DeleteResult(False, None)


class DynamicForest:
    """Spanning forest of a dynamic multigraph on vertices [0, n).

    Parallel edges are distinct integer handles supplied by the caller;
    handle ids must be fresh (strictly larger than any id seen before).
    Components carry integer labels so connectivity checks are O(1);
    structural changes relabel one side and deletions of forest edges
    search the detached side for a reconnecting spare edge.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("vertex count must be positive")
        self.n = n
        self._label = list(range(n))
        self._size: dict[int, int] = {v: 1 for v in range(n)}
        self._next_label = n
        # tree adjacency: neighbor -> handle id (a forest never holds
        # parallel edges, so one slot per neighbor suffices)
        self._tree: list[dict[int, int]] = [{} for _ in range(n)]
        # spare adjacency: handle id -> other endpoint
        self._spare: list[dict[int, int]] = [{} for _ in range(n)]
        self._endpoints: dict[int, EdgeKey] = {}
        self._tree_ids: set[int] = set()
        self._max_id = -1

    def __len__(self) -> int:
        return len(self._endpoints)

    def connected(self, u: int, v: int) -> bool:
        return self._label[u] == self._label[v]

    def tree_handles(self) -> frozenset[int]:
        return frozenset(self._tree_ids)

    def tree_edges(self) -> Iterator[EdgeKey]:
        for h in self._tree_ids:
            yield self._endpoints[h]

    def insert(self, handle: int, u: int, v: int) -> bool:
        """Add a handle for (u, v); returns True iff it joined the forest."""
        if handle <= self._max_id:
            raise ValueError(f"handle id {handle} is not fresh")
        key = edge_key(u, v)
        if not (0 <= key[0] < self.n and 0 <= key[1] < self.n):
            raise ValueError(f"endpoints {key} out of range")
        self._max_id = handle
        self._endpoints[handle] = key
        u, v = key
        lu, lv = self._label[u], self._label[v]
        if lu == lv:
            self._spare[u][handle] = v
            self._spare[v][handle] = u
            return False
        if self._size[lu] < self._size[lv]:
            self._relabel(u, lv)
        else:
            self._relabel(v, lu)
        self._tree[u][v] = handle
        self._tree[v][u] = handle
        self._tree_ids.add(handle)
        return True

    def delete(self, handle: int) -> DeleteResult:
        """Remove a handle; promotes a reconnecting spare when one exists."""
        key = self._endpoints.pop(handle, None)
        if key is None:
            raise KeyError(f"handle {handle} is not live")
        u, v = key
        if handle not in self._tree_ids:
            del self._spare[u][handle]
            del self._spare[v][handle]
            return UNTOUCHED
        self._tree_ids.discard(handle)
        del self._tree[u][v]
        del self._tree[v][u]
        side = self._reach(v)
        found: tuple[int, int, int] | None = None
        for x in side:
            for h, y in self._spare[x].items():
                if y not in side:
                    found = (h, x, y)
                    break
            if found:
                break
        if found:
            # reconnects the split; component labels never changed
            h, x, y = found
            del self._spare[x][h]
            del self._spare[y][h]
            self._tree[x][y] = h
            self._tree[y][x] = h
            self._tree_ids.add(h)
            return DeleteResult(True, h)
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
