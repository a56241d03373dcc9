"""Uniform sampling from a dynamic set with minimal sample churn."""

from __future__ import annotations

import random


class StableSampler:
    """Maintains a uniformly random element of a changing set.

    Every element receives a random 64-bit priority when inserted and the
    current sample is the minimum-priority element. Because priorities are
    distinct and exchangeable, an insert or delete changes the sample with
    probability exactly 1/|set| (taken after the insert, before the delete),
    and the sample is uniform at every point in time.

    Insert compares the new priority with the current element's in O(1).
    Removing the current element rescans the rest in O(|set|); that happens
    only when the sample changes, and then the caller relabels every edge of
    the sampling vertex, which costs at least as much.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._priority: dict[int, int] = {}
        self._taken: set[int] = set()
        self._current: int | None = None

    def __len__(self) -> int:
        return len(self._priority)

    def __contains__(self, x: int) -> bool:
        return x in self._priority

    def current(self) -> int | None:
        """Minimum-priority element, or None when empty."""
        return self._current

    def insert(self, x: int) -> bool:
        """Add x; returns True iff the current sample changed."""
        if x in self._priority:
            raise ValueError(f"element {x} already present")
        p = self._rng.getrandbits(64)
        while p in self._taken:  # keep priorities distinct
            p = self._rng.getrandbits(64)
        self._priority[x] = p
        self._taken.add(p)
        if self._current is None or p < self._priority[self._current]:
            self._current = x
            return True
        return False

    def remove(self, x: int) -> bool:
        """Remove x; returns True iff the current sample changed."""
        if x not in self._priority:
            raise KeyError(x)
        self._taken.discard(self._priority.pop(x))
        if x != self._current:
            return False
        self._current = min(self._priority, key=self._priority.__getitem__, default=None)
        return True
