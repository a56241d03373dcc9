"""Uniform sampling from a dynamic set with minimal sample churn."""

from __future__ import annotations

import random


class StableSampler:
    """Maintains a uniformly random element of a changing set.

    Every element receives one random 64-bit priority when inserted and the
    current sample is the minimum-priority element; of equal priorities the
    earlier insert wins. Because priorities are exchangeable and two of them
    tie with probability 2^-64, an insert or delete changes the sample with
    probability 1/|set| (taken after the insert, before the delete) up to
    that tie chance, and the sample is uniform up to the same margin.

    Insert is O(1). Removing the current element rescans the rest in
    O(|set|); that happens only when the sample changes, and then the
    caller relabels every edge of the sampling vertex, which costs at least
    as much.
    """

    __slots__ = ("_rng", "_priority", "_current")

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._priority: dict[int, int] = {}
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
        p = self._priority[x] = self._rng.getrandbits(64)
        if self._current is None or p < self._priority[self._current]:
            self._current = x
            return True
        return False

    def remove(self, x: int) -> bool:
        """Remove x; returns True iff the current sample changed."""
        del self._priority[x]
        if x != self._current:
            return False
        self._current = min(self._priority, key=self._priority.__getitem__, default=None)
        return True
