"""Stable uniform sampler: uniformity, stability, and change probabilities."""

from __future__ import annotations

import random

import pytest

from dyncut import StableSampler

TRIALS = 100_000
TOLERANCE = 0.01

# chi-square critical values at significance 1e-3
CHI2_CRIT = {1: 10.828, 3: 16.266, 7: 24.322}


def _fresh(seed: int, elements=()) -> StableSampler:
    s = StableSampler(random.Random(seed))
    for x in elements:
        s.insert(x)
    return s


def test_insert_into_empty_is_current():
    s = _fresh(1)
    assert s.current() is None
    assert s.insert("x") is True
    assert s.current() == "x"


def test_duplicate_insert_rejected():
    s = _fresh(2, ["x"])
    with pytest.raises(ValueError):
        s.insert("x")


def test_remove_last_empties():
    s = _fresh(3, ["x"])
    assert s.remove("x") is True
    assert s.current() is None
    assert len(s) == 0


def test_remove_non_minimum_keeps_current():
    s = _fresh(4, range(10))
    keep = s.current()
    victim = next(x for x in range(10) if x != keep)
    assert s.remove(victim) is False
    assert s.current() == keep


def test_remove_absent_rejected():
    s = _fresh(5, ["x"])
    with pytest.raises(KeyError):
        s.remove("y")


def test_contains_and_len():
    s = _fresh(6, range(4))
    assert len(s) == 4
    assert 2 in s
    assert 9 not in s


def test_current_is_priority_argmin():
    rng = random.Random(7)
    s = StableSampler(random.Random(8))
    live: set[int] = set()
    for step in range(400):
        if live and rng.random() < 0.4:
            victim = rng.choice(sorted(live))
            s.remove(victim)
            live.discard(victim)
        else:
            s.insert(step)
            live.add(step)
        # full-scan argmin over the internal priorities
        pri = s._priority
        assert set(pri) == live
        if live:
            assert s.current() == min(pri, key=pri.__getitem__)
        assert len(set(pri.values())) == len(live)


def test_matches_seeded_shadow():
    # the shadow draws priorities with the same getrandbits(64) calls from
    # an identically seeded generator, so every answer, and every draw the
    # contraction's seeded layout depends on, must agree
    ops = random.Random(9)
    s = StableSampler(random.Random(10))
    draws = random.Random(10)
    shadow: dict[int, int] = {}

    def shadow_min():
        return min(shadow, key=shadow.__getitem__) if shadow else None

    for _ in range(5000):
        x = ops.randrange(64)
        if x in shadow:
            was_min = shadow_min() == x
            del shadow[x]
            assert s.remove(x) is was_min
        else:
            p = draws.getrandbits(64)
            while p in shadow.values():
                p = draws.getrandbits(64)
            shadow[x] = p
            assert s.insert(x) is (shadow_min() == x)
        assert s.current() == shadow_min()
        assert len(s) == len(shadow)


def test_insert_change_probability_quarter():
    # |S| = 3 before each insert; exact P[changed] is 1/4
    rng = random.Random(1001)
    changed = 0
    for _ in range(TRIALS):
        s = StableSampler(random.Random(rng.getrandbits(48)))
        for x in "abc":
            s.insert(x)
        if s.insert("d"):
            changed += 1
    assert abs(changed / TRIALS - 0.25) < TOLERANCE


def test_remove_change_probability_fifth():
    # |S| = 5 before each removal of a uniformly chosen element
    rng = random.Random(1002)
    changed = 0
    for _ in range(TRIALS):
        s = StableSampler(random.Random(rng.getrandbits(48)))
        for x in range(5):
            s.insert(x)
        if s.remove(rng.randrange(5)):
            changed += 1
    assert abs(changed / TRIALS - 0.2) < TOLERANCE


@pytest.mark.parametrize("size", [2, 4, 8])
def test_current_uniform_chi_square(size):
    rng = random.Random(2000 + size)
    counts = [0] * size
    for _ in range(TRIALS):
        s = StableSampler(random.Random(rng.getrandbits(48)))
        for x in range(size):
            s.insert(x)
        counts[s.current()] += 1
    expected = TRIALS / size
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < CHI2_CRIT[size - 1], f"chi2={stat:.2f} counts={counts}"


def test_change_count_matches_harmonic_number():
    # record-value argument: E[#changes over m random inserts] = H_m
    m = 12
    h_m = sum(1 / k for k in range(1, m + 1))  # ~3.1032
    rng = random.Random(3003)
    total = 0
    trials = 20_000
    for _ in range(trials):
        s = StableSampler(random.Random(rng.getrandbits(48)))
        total += sum(1 for x in range(m) if s.insert(x))
    mean = total / trials
    assert abs(mean - h_m) < 0.05, f"mean={mean:.4f} expected={h_m:.4f}"
