"""Partition enumeration and counting against brute-force oracles."""

import gc
import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

import degenloci.partitions as partitions
from degenloci.partitions import (
    BoxConstraint,
    Partition,
    StrictPartition,
    box_factors,
    count_box_partitions,
    count_strict_partitions,
    enumerate_box_partitions,
    enumerate_strict_partitions,
    merge_doubled,
    multiply_by_factors,
    split_doubled,
    strict_factors,
    verify_doubling_bijection,
)


def brute_box_partitions(weight, max_part, max_length=None):
    """Every weakly decreasing tuple of the right weight, found by trying all
    compositions; deliberately shares no code with the package."""
    cap = weight if max_length is None else min(max_length, weight)
    found = set()

    def rec(remaining, prefix):
        if remaining == 0:
            found.add(tuple(prefix))
            return
        if len(prefix) == cap:
            return
        top = prefix[-1] if prefix else max_part
        for p in range(1, min(top, remaining) + 1):
            rec(remaining - p, prefix + [p])

    rec(weight, [])
    return found


def brute_strict_partitions(weight, max_part):
    """Strict partitions as subsets of {1..max_part} summing to the weight."""
    found = set()
    universe = list(range(1, max_part + 1))
    for size in range(len(universe) + 1):
        for subset in combinations(universe, size):
            if sum(subset) == weight:
                found.add(tuple(sorted(subset, reverse=True)))
    return found


# ---------------------------------------------------------------------------
# Partition containers


def test_partition_drops_zero_parts():
    assert Partition([3, 2, 0, 0]).parts == (3, 2)
    assert Partition([]).parts == ()
    assert Partition().weight == 0


def test_partition_rejects_bad_input():
    # a negative part is reported before an order error
    for parts, message in (
            ([1, 2], "parts not weakly decreasing: [1, 2]"),
            ([3, -1], "negative part in [3, -1]"),
            ([-1, 2], "negative part in [-1, 2]"),
            ([2, 2, 3], "parts not weakly decreasing: [2, 2, 3]")):
        with pytest.raises(ValueError) as exc:
            Partition(parts)
        assert str(exc.value) == message


def test_partition_is_immutable():
    lam = Partition([2, 1])
    with pytest.raises(AttributeError):
        lam.parts = (3,)


def test_partition_part_is_one_indexed():
    lam = Partition([4, 2, 1])
    assert [lam.part(i) for i in range(1, 6)] == [4, 2, 1, 0, 0]
    with pytest.raises(IndexError):
        lam.part(0)


def test_conjugate_known_shape():
    assert Partition([4, 2, 1]).conjugate().parts == (3, 2, 1, 1)
    assert Partition().conjugate().parts == ()


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=6))
def test_conjugate_is_an_involution(parts):
    lam = Partition(sorted(parts, reverse=True))
    assert lam.conjugate().conjugate() == lam


def test_strict_partition_rejects_repeats():
    with pytest.raises(ValueError):
        StrictPartition([3, 3, 1])
    with pytest.raises(ValueError) as exc:
        StrictPartition([2, 2])
    assert str(exc.value) == "parts not strictly decreasing: [2, 2]"
    assert StrictPartition([3, 1]).parts == (3, 1)


def test_equal_partitions_hash_alike():
    # equality ignores the class, so the hash must too
    lam, mu = Partition([2, 1]), StrictPartition([2, 1])
    assert lam == mu and hash(lam) == hash(mu)
    assert len({lam, mu}) == 1


# ---------------------------------------------------------------------------
# enumeration against brute force


@given(
    weight=st.integers(min_value=0, max_value=14),
    max_part=st.integers(min_value=0, max_value=8),
    max_length=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
)
def test_box_enumeration_matches_brute_force(weight, max_part, max_length):
    got = enumerate_box_partitions(weight, BoxConstraint(max_part, max_length))
    assert {p.parts for p in got} == brute_box_partitions(weight, max_part, max_length)
    assert len(got) == len({p.parts for p in got})


@given(
    weight=st.integers(min_value=0, max_value=18),
    max_part=st.integers(min_value=0, max_value=9),
)
def test_strict_enumeration_matches_brute_force(weight, max_part):
    got = enumerate_strict_partitions(weight, max_part)
    assert {p.parts for p in got} == brute_strict_partitions(weight, max_part)


def test_enumerators_leave_no_reference_cycle():
    # with the collector off, a cycle through the recursion's closure would
    # hold one more reference to the returned list
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        box = enumerate_box_partitions(6, BoxConstraint(6))
        strict = enumerate_strict_partitions(6, 6)
        assert (sys.getrefcount(box), sys.getrefcount(strict)) == (2, 2)
    finally:
        if was_enabled:
            gc.enable()


def test_enumeration_is_lex_descending():
    got = [p.parts for p in enumerate_box_partitions(4, BoxConstraint(3))]
    assert got == [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    strict = [p.parts for p in enumerate_strict_partitions(6, 5)]
    assert strict == [(5, 1), (4, 2), (3, 2, 1)]


def test_enumeration_depth_grows_with_part_sizes_not_parts():
    # one recursion level per part overflowed the stack on 1^q, q ~ 990
    weight = 2 * sys.getrecursionlimit()
    ones = enumerate_box_partitions(weight, BoxConstraint(1))
    assert [p.parts for p in ones] == [(1,) * weight]
    got = [p.parts for p in enumerate_box_partitions(weight, BoxConstraint(2))]
    assert got == [(2,) * k + (1,) * (weight - 2 * k)
                   for k in range(weight // 2, -1, -1)]


@given(
    weight=st.integers(min_value=0, max_value=16),
    max_part=st.integers(min_value=0, max_value=8),
    max_length=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
)
def test_counts_match_enumeration(weight, max_part, max_length):
    box = BoxConstraint(max_part, max_length)
    assert count_box_partitions(weight, max_part, max_length) == len(
        enumerate_box_partitions(weight, box))
    assert count_strict_partitions(weight, max_part) == len(
        enumerate_strict_partitions(weight, max_part))


def test_counts_reject_negative_weight():
    with pytest.raises(ValueError):
        count_box_partitions(-1, 3)
    with pytest.raises(ValueError):
        count_strict_partitions(-1, 3)
    with pytest.raises(ValueError):
        enumerate_box_partitions(-2, BoxConstraint(2))
    with pytest.raises(ValueError):
        enumerate_strict_partitions(-2, 2)


def test_strict_counts_with_many_parts():
    # one level of recursion per part used to overflow the stack here
    assert count_strict_partitions(5, 3000) == 3
    # strict partitions of 3 with parts <= 1200: (3) and (2, 1)
    assert count_strict_partitions(3, 1200) == 2
    # q(100), the number of partitions of 100 into distinct parts
    assert count_strict_partitions(100, 3000) == 444793
    assert count_strict_partitions(100, 10) == 0
    assert (count_strict_partitions(0, 0), count_strict_partitions(3, 0)) == (1, 0)


def test_strict_count_rejects_negative_max_part():
    # both counters reject a negative bound rather than reading it as 0
    for count in (count_box_partitions, count_strict_partitions):
        with pytest.raises(ValueError, match="max_part must be nonnegative"):
            count(3, -2)


@pytest.mark.parametrize("weight", [0, 5])
def test_enumeration_rejects_negative_bounds_like_the_counters(weight):
    # a negative bound is an error, not an unbounded or an empty box
    cases = [
        ("max_length", lambda: enumerate_box_partitions(weight, BoxConstraint(5, -1)),
         lambda: count_box_partitions(weight, 5, -1)),
        ("max_part", lambda: enumerate_box_partitions(weight, BoxConstraint(-2)),
         lambda: count_box_partitions(weight, -2)),
        ("max_part", lambda: enumerate_strict_partitions(weight, -1),
         lambda: count_strict_partitions(weight, -1)),
    ]
    for bound, enumerate_, count in cases:
        for call in (enumerate_, count):
            with pytest.raises(ValueError, match=f"{bound} must be nonnegative"):
                call()


def test_non_integer_parts_and_bounds_are_rejected():
    # a float or a string is an error, not a part or a bound rounded to an int
    cases = [
        lambda: Partition([2.5, 1]),
        lambda: Partition(["3", 1]),
        lambda: StrictPartition([3.0, 1]),
        lambda: count_box_partitions(2.5, 3),
        lambda: count_box_partitions(4, 3, 1.5),
        lambda: count_strict_partitions(4.0, 3),
        lambda: enumerate_box_partitions(2.0, BoxConstraint(2)),
        lambda: enumerate_strict_partitions(3, 2.0),
    ]
    for call in cases:
        with pytest.raises(TypeError):
            call()


def test_box_counts_at_large_weights():
    # p(250), the number of all partitions of 250
    assert count_box_partitions(250, 250) == 230793554364681
    assert count_box_partitions(1000, 2) == 501
    assert count_box_partitions(400, 20, 20) == 1
    with pytest.raises(ValueError):
        count_box_partitions(3, 2, -1)


@given(
    a=st.integers(min_value=0, max_value=7),
    b=st.integers(min_value=0, max_value=7),
)
def test_full_box_totals_are_binomial(a, b):
    total = sum(count_box_partitions(w, b, a) for w in range(a * b + 1))
    assert total == comb(a + b, a)


@given(
    weight=st.integers(min_value=0, max_value=20),
    a=st.integers(min_value=0, max_value=6),
    b=st.integers(min_value=0, max_value=6),
)
def test_box_count_conjugation_symmetry(weight, a, b):
    assert count_box_partitions(weight, b, a) == count_box_partitions(weight, a, b)


@given(
    weight=st.integers(min_value=0, max_value=20),
    a=st.integers(min_value=0, max_value=6),
    b=st.integers(min_value=0, max_value=6),
)
def test_box_count_complement_symmetry(weight, a, b):
    other = a * b - weight
    if other >= 0:
        assert count_box_partitions(weight, b, a) == count_box_partitions(other, b, a)


@given(max_part=st.integers(min_value=0, max_value=9))
def test_strict_totals_are_powers_of_two(max_part):
    cap = max_part * (max_part + 1) // 2
    total = sum(count_strict_partitions(w, max_part) for w in range(cap + 1))
    assert total == 2 ** max_part


@lru_cache(maxsize=None)
def _box_count_by_largest_part(weight, max_part, max_length):
    """Partitions in a box by the largest-part recurrence; shares no code
    with the package."""
    if weight == 0:
        return 1
    if max_part == 0 or max_length == 0:
        return 0
    top = min(max_part, weight)
    return (_box_count_by_largest_part(weight, top - 1, max_length)
            + _box_count_by_largest_part(weight - top, top, max_length - 1))


@pytest.mark.parametrize("k", range(7))
def test_counts_at_power_of_two_weights(k):
    # weights on both sides of 2**k, with sides below, at and above the
    # weight (and no row bound), so no weight or side is rounded or clamped
    # into a wrong coefficient; by enumeration up to weight 33, and by the
    # recurrence alone beyond, where p(65) is about two million partitions
    for weight in (2 ** k - 1, 2 ** k, 2 ** k + 1):
        sides = [side for side in (weight // 2, weight - 1, weight, weight + 1)
                 if side >= 0]
        for max_part in sides:
            strict = count_strict_partitions(weight, max_part)
            assert strict == len(enumerate_strict_partitions(weight, max_part))
            for max_length in sides + [None]:
                count = count_box_partitions(weight, max_part, max_length)
                rows = weight if max_length is None else max_length
                assert count == _box_count_by_largest_part(weight, max_part, rows)
                if k <= 5:
                    assert count == len(enumerate_box_partitions(
                        weight, BoxConstraint(max_part, max_length)))


def test_counts_with_huge_sides():
    # only the factors below the weight are applied, so a side of 10**12
    # costs no more than a side equal to the weight
    assert count_box_partitions(5, 10**12, 10**12) == 7
    assert count_box_partitions(5, 10**12) == 7
    assert count_strict_partitions(6, 10**12) == 4


# ---------------------------------------------------------------------------
# series factors


@st.composite
def _shapes(draw):
    """A box (max_part, max_length; None is any number of rows) or a strict
    shape, with the factors of its series and the counter of its
    partitions by enumeration, which never applies the factors."""
    max_part = draw(st.integers(min_value=0, max_value=5))
    if draw(st.booleans()):
        return strict_factors(max_part), lambda q: len(
            enumerate_strict_partitions(q, max_part))
    max_length = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
    return box_factors(max_part, max_length), lambda q: len(
        enumerate_box_partitions(q, BoxConstraint(max_part, max_length)))


@given(
    series=st.lists(st.integers(min_value=-50, max_value=50), max_size=24),
    step=st.sampled_from([1, 2, 4]),
    shape=_shapes(),
)
def test_series_factors_match_enumerated_counts(series, step, shape):
    # out[p] = sum_q N(q) * a[p - step*q], N(q) partitions of weight q
    factors, count = shape
    top = len(series)
    expected = [sum(count(q) * series[p - step * q] for q in range(p // step + 1))
                for p in range(top)]
    out = multiply_by_factors(list(series), factors, step)
    assert out == expected


def test_series_factor_shapes():
    # the shorter side gives the factors: 2 rows of parts <= 3, or 3 of <= 2
    assert box_factors(3, 2) == box_factors(2, 3) == (range(4, 6), range(1, 3))
    assert box_factors(3) == (range(0), range(1, 4))
    assert box_factors(0, 4) == (range(0), range(0))
    assert strict_factors(3) == (range(2, 7, 2), range(1, 4))


# ---------------------------------------------------------------------------
# part-doubling bijection


def test_merge_doubled_known_case():
    lam, mu = Partition([2, 1]), StrictPartition([3, 1])
    assert merge_doubled(lam, mu).parts == (3, 2, 2, 1, 1, 1)


@given(
    lam_parts=st.lists(st.integers(min_value=1, max_value=6), max_size=5),
    mu_weight=st.integers(min_value=0, max_value=12),
)
def test_split_inverts_merge(lam_parts, mu_weight):
    lam = Partition(sorted(lam_parts, reverse=True))
    for mu in enumerate_strict_partitions(mu_weight, 6):
        nu = merge_doubled(lam, mu)
        assert nu.weight == 2 * lam.weight + mu.weight
        back_mu, back_lam = split_doubled(nu)
        assert (back_mu, back_lam) == (mu, lam)


@given(parts=st.lists(st.integers(min_value=1, max_value=7), max_size=7))
def test_merge_inverts_split(parts):
    nu = Partition(sorted(parts, reverse=True))
    mu, lam = split_doubled(nu)
    assert merge_doubled(lam, mu) == nu


def _merge_reference(lam, mu):
    """merge_doubled as first written: sort, then validate a new Partition."""
    doubled = [p for p in lam for _ in (0, 1)]
    return Partition(sorted(list(mu.parts) + doubled, reverse=True))


def _split_reference(nu):
    """split_doubled as first written: count each distinct part, validate."""
    mu, lam = [], []
    for p in sorted(set(nu.parts), reverse=True):
        m = nu.parts.count(p)
        if m % 2 == 1:
            mu.append(p)
        lam.extend([p] * (m // 2))
    return StrictPartition(mu), Partition(sorted(lam, reverse=True))


def _assert_validated(result, cls):
    assert type(result) is cls
    assert type(result.parts) is tuple
    assert all(type(p) is int for p in result.parts)
    assert cls(result.parts) == result


@given(
    lam_parts=st.lists(st.integers(min_value=1, max_value=6), max_size=6),
    mu_parts=st.sets(st.integers(min_value=1, max_value=9), max_size=5),
    nu_parts=st.lists(st.integers(min_value=1, max_value=5), max_size=10),
)
def test_doubling_outputs_pass_validation(lam_parts, mu_parts, nu_parts):
    lam = Partition(sorted(lam_parts, reverse=True))
    mu = StrictPartition(sorted(mu_parts, reverse=True))
    nu = merge_doubled(lam, mu)
    _assert_validated(nu, Partition)
    assert nu == _merge_reference(lam, mu)

    nu = Partition(sorted(nu_parts, reverse=True))
    split = split_doubled(nu)
    _assert_validated(split[0], StrictPartition)
    _assert_validated(split[1], Partition)
    assert split == _split_reference(nu)


def test_doubling_sweep_passes():
    report = verify_doubling_bijection(12, 4)
    assert report.passed
    assert report.failure is None
    assert report.weights_checked == 13
    obj = report.to_json_obj()
    assert obj["passed"] and obj["q_max"] == 12


def test_doubling_sweep_pair_count_is_frozen():
    report = verify_doubling_bijection(32, 8)
    assert report.passed
    assert (report.weights_checked, report.pairs_checked) == (33, 21402)


def test_doubling_sweep_enumerates_each_weight_once(monkeypatch):
    # the strict partitions of each s and the doubled ones of each t are
    # enumerated once, not again for every weight w = s + 2t they enter
    calls = Counter()
    real = partitions._enumerate

    def counting(cls, weight, *bounds):
        calls[cls.__name__, weight] += 1
        return real(cls, weight, *bounds)

    monkeypatch.setattr(partitions, "_enumerate", counting)
    assert verify_doubling_bijection(20, 6).passed
    assert calls == Counter({**{("StrictPartition", s): 1 for s in range(21)},
                             **{("Partition", t): 1 for t in range(11)}})


def _doubling_failure(q_max=6, max_part=3):
    report = verify_doubling_bijection(q_max, max_part)
    assert not report.passed
    obj = report.to_json_obj()
    assert obj["passed"] is False and obj["failure"] == report.failure
    return report.failure, report.weights_checked, report.pairs_checked


def test_doubling_failure_count_mismatch(monkeypatch):
    # all partitions in place of strict ones: weight 2 gets (2), (1,1) and
    # a doubled (1), against the two partitions of 2
    monkeypatch.setattr(partitions, "strict_factors", box_factors)
    assert _doubling_failure() == ("count mismatch at weight 2: 2 != 3", 2, 2)


def test_doubling_failure_merge_weight(monkeypatch):
    # one copy of each doubled part instead of two
    monkeypatch.setattr(partitions, "merge_doubled", lambda lam, mu: Partition(
        sorted((*mu.parts, *lam.parts), reverse=True)))
    assert _doubling_failure() == (
        "merge weight off for StrictPartition([]), Partition([1])", 2, 3)


def test_doubling_failure_round_trip(monkeypatch):
    monkeypatch.setattr(partitions, "split_doubled",
                        lambda nu: (StrictPartition(), Partition(nu.parts)))
    assert _doubling_failure() == (
        "round trip failed for StrictPartition([1]), Partition([])", 1, 2)


def test_doubling_failure_not_injective(monkeypatch):
    # a merge that keeps only the weight, and a split that remembers the
    # pair it came from, so every round trip passes
    last = []

    def merge(lam, mu):
        last[:] = [mu, lam]
        return Partition([1] * (2 * lam.weight + mu.weight))

    monkeypatch.setattr(partitions, "merge_doubled", merge)
    monkeypatch.setattr(partitions, "split_doubled", lambda nu: tuple(last))
    assert _doubling_failure() == (
        "merge not injective at Partition([1, 1])", 2, 4)


def test_doubling_failure_not_surjective(monkeypatch):
    # only the first strict partition of each weight: (2, 1) goes missing
    real = partitions.enumerate_strict_partitions
    monkeypatch.setattr(partitions, "enumerate_strict_partitions",
                        lambda weight, max_part: real(weight, max_part)[:1])
    assert _doubling_failure() == ("merge not surjective at weight 3", 3, 6)
