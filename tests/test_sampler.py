"""Stable uniform sampler: argmin, stability and change counts.

Most tests run one owner, 0, whose sample the sampler writes into a
one-entry table. Uniformity and the change probabilities on one insert or
removal are measured by acceptance criterion 07.
"""

from __future__ import annotations

import random

import pytest

from dyncut import StableSampler


def _fresh(seed: int, elements=()) -> tuple[StableSampler, list]:
    table = [None]
    s = StableSampler(random.Random(seed), table)
    for x in elements:
        s.insert(0, x)
    return s, table


def test_insert_into_empty_is_current():
    s, table = _fresh(1)
    assert table[0] is None
    assert s.insert(0, "x") is True
    assert table[0] == "x"


def test_duplicate_insert_rejected():
    s, _ = _fresh(2, ["x"])
    with pytest.raises(ValueError):
        s.insert(0, "x")


def test_remove_last_empties():
    # an emptied set is dropped, priorities and all
    s, table = _fresh(3, ["x"])
    assert s.remove(0, "x") is True
    assert table[0] is None
    assert s.members(0) is None
    assert s._priority == {}


def test_remove_non_minimum_keeps_current():
    s, table = _fresh(4, range(10))
    keep = table[0]
    victim = next(x for x in range(10) if x != keep)
    assert s.remove(0, victim) is False
    assert table[0] == keep


def test_remove_absent_rejected():
    s, _ = _fresh(5, ["x"])
    with pytest.raises(KeyError):
        s.remove(0, "y")
    with pytest.raises(KeyError):
        s.remove(1, "x")


def test_contains_and_len():
    s, _ = _fresh(6, range(4))
    assert len(s.members(0)) == 4
    assert 2 in s.members(0)
    assert 9 not in s.members(0)
    assert s.members(1) is None


def test_current_is_priority_argmin():
    rng = random.Random(7)
    s, table = _fresh(8)
    live: set[int] = set()
    for step in range(400):
        if live and rng.random() < 0.4:
            victim = rng.choice(sorted(live))
            s.remove(0, victim)
            live.discard(victim)
        else:
            s.insert(0, step)
            live.add(step)
        # full-scan argmin over the internal priorities
        pri = s._priority.get(0, {})
        assert set(pri) == live
        assert table[0] == s.minimum(0)
        if live:
            assert table[0] == min(pri, key=pri.__getitem__)
        assert len(set(pri.values())) == len(live)


def test_matches_seeded_shadow():
    # three owners draw from one source; the shadow draws priorities with
    # the same getrandbits(64) calls from an identically seeded generator,
    # so every answer, and every draw the contraction's seeded layout
    # depends on, must agree
    ops = random.Random(9)
    table = [None] * 3
    s = StableSampler(random.Random(10), table)
    draws = random.Random(10)
    shadow: list[dict[int, int]] = [{} for _ in table]

    def shadow_min(owner):
        pri = shadow[owner]
        return min(pri, key=pri.__getitem__) if pri else None

    for _ in range(5000):
        owner, x = ops.randrange(3), ops.randrange(64)
        if x in shadow[owner]:
            was_min = shadow_min(owner) == x
            del shadow[owner][x]
            assert s.remove(owner, x) is was_min
        else:
            shadow[owner][x] = draws.getrandbits(64)
            assert s.insert(owner, x) is (shadow_min(owner) == x)
        assert table == [shadow_min(o) for o in range(3)]
        assert [len(s.members(o) or ()) for o in range(3)] == list(map(len, shadow))
        assert all(pri for pri in s._priority.values())


class _ScriptedRng:
    """Stands in for random.Random: getrandbits returns the scripted values."""

    def __init__(self, values) -> None:
        self._values = iter(values)
        self.draws = 0

    def getrandbits(self, bits: int) -> int:
        self.draws += 1
        return next(self._values)


def test_tied_priorities_keep_the_earlier_insert():
    # one draw per insert, even when it ties a live priority; of equal
    # priorities the earlier insert stays current, and removing it promotes
    # the earliest remaining minimum
    rng = _ScriptedRng([5, 9, 5, 5])
    table = [None]
    s = StableSampler(rng, table)
    assert s.insert(0, "a") is True
    assert s.insert(0, "b") is False
    assert s.insert(0, "c") is False
    assert s.insert(0, "d") is False
    assert rng.draws == 4
    assert s._priority == {0: {"a": 5, "b": 9, "c": 5, "d": 5}}
    assert table[0] == s.minimum(0) == "a"
    assert s.remove(0, "a") is True
    assert table[0] == s.minimum(0) == "c"
    assert s.remove(0, "c") is True
    assert table[0] == s.minimum(0) == "d"


def test_change_count_matches_harmonic_number():
    # record-value argument: E[#changes over m random inserts] = H_m
    m = 12
    h_m = sum(1 / k for k in range(1, m + 1))  # ~3.1032
    rng = random.Random(3003)
    total = 0
    trials = 20_000
    for _ in range(trials):
        s = StableSampler(random.Random(rng.getrandbits(48)), [None])
        total += sum(1 for x in range(m) if s.insert(0, x))
    mean = total / trials
    assert abs(mean - h_m) < 0.05, f"mean={mean:.4f} expected={h_m:.4f}"
