"""Uniform sampling from dynamic sets with minimal sample churn."""

from __future__ import annotations

import random


class StableSampler:
    """Maintains a uniformly random element of each owner's changing set.

    Every element receives one random 64-bit priority when inserted and an
    owner's sample is the minimum-priority element of its set; of equal
    priorities the earlier insert wins. Because priorities are exchangeable
    and two of them tie with probability 2^-64, an insert or delete changes
    the sample with probability 1/|set| (taken after the insert, before the
    delete) up to that tie chance, and the sample is uniform up to the same
    margin. The sample is written into the table handed in, at the owner's
    index, when it changes (None once the set empties) and is kept nowhere
    else; an owner's priorities are kept only while its set is non-empty.

    Insert is O(1). Removing the sampled element rescans the rest in
    O(|set|); that happens only when the sample changes, and then the
    caller relabels every edge of the owner, which costs at least as much.
    """

    __slots__ = ("_rng", "_table", "_priority")

    def __init__(self, rng: random.Random | None, table: list) -> None:
        self._rng = rng
        self._table = table
        self._priority: dict[int, dict] = {}  # owner -> {element: priority}

    def members(self, owner: int):
        """The owner's set, read-only, or None when it is empty."""
        return self._priority[owner].keys() if owner in self._priority else None

    def minimum(self, owner: int):
        """The owner's minimum-priority element by a scan, None when empty."""
        priority = self._priority.get(owner, {})
        return min(priority, key=priority.__getitem__, default=None)

    def insert(self, owner: int, x) -> bool:
        """Add x to owner's set; returns True iff its sample changed."""
        priority = self._priority.setdefault(owner, {})
        if x in priority:
            raise ValueError(f"element {x} already present")
        p = priority[x] = self._rng.getrandbits(64)
        if len(priority) == 1 or p < priority[self._table[owner]]:
            self._table[owner] = x
            return True
        return False

    def remove(self, owner: int, x) -> bool:
        """Remove x from owner's set; returns True iff its sample changed."""
        priority = self._priority[owner]
        del priority[x]
        if x != self._table[owner]:
            return False
        if not priority:
            del self._priority[owner]
        self._table[owner] = self.minimum(owner)
        return True
