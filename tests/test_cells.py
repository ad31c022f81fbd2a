"""Cell decomposition of degenerate isotropic Grassmannians."""

import json
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import degenloci.cells as cells
import degenloci.partitions as partitions
from degenloci.cells import (
    OrbitSignature,
    cell_histogram,
    _pair_condition_ok,
    chow_ranks_decomposition,
    enumerate_cells,
    enumerate_orbit_signatures,
    grassmann_cell_dimension,
    is_admissible,
    nondegenerate_cell_dimension,
    orbit_dimension,
    verify_restriction_bounds_degenerate,
)
from degenloci.rings import grassmannian_dimension, isotropic_dimension


def count_in_box(weight, max_part, max_len):
    if weight == 0:
        return 1
    if max_len == 0 or max_part == 0:
        return 0
    return sum(
        count_in_box(weight - p, p, max_len - 1)
        for p in range(1, min(weight, max_part) + 1)
    )


def count_strict_bounded(weight, max_part):
    if weight == 0:
        return 1
    if max_part == 0:
        return 0
    with_top = count_strict_bounded(weight - max_part, max_part - 1) if weight >= max_part else 0
    return with_top + count_strict_bounded(weight, max_part - 1)


def pairwise_ok(jumps, k, r):
    """The pair condition written out: no two quotient positions, equal or
    not, sum to 2r + 1."""
    quotient = [x - k for x in jumps if x > k]
    return all(a + b != 2 * r + 1
               for i, a in enumerate(quotient) for b in quotient[i:])


# ---------------------------------------------------------------------------
# signatures


def test_signature_validation():
    assert OrbitSignature((1, 3, 4)).jumps == (1, 3, 4)
    with pytest.raises(ValueError):
        OrbitSignature((3, 1))
    with pytest.raises(ValueError):
        OrbitSignature((2, 2))
    with pytest.raises(ValueError):
        OrbitSignature((0, 1))
    # not truncated to the jumps (1, 2)
    for jumps in ((1.5, 2), ("1", 2)):
        with pytest.raises(TypeError):
            OrbitSignature(jumps)


def test_incidence_and_kernel_count():
    sig = OrbitSignature((2, 5))
    assert sig.incidence(6) == (0, 1, 1, 1, 2, 2)
    assert sig.kernel_count(1) == 0
    assert sig.kernel_count(2) == 1
    assert sig.kernel_count(5) == 2
    with pytest.raises(ValueError):
        sig.incidence(4)


def test_cell_dimension_formulas():
    assert grassmann_cell_dimension(()) == 0
    assert grassmann_cell_dimension((1, 2, 3)) == 0
    assert grassmann_cell_dimension((2, 4)) == 3
    # jumps 3 and 4 sum past 2r+1 = 5, so one crossing is lost from the
    # ordinary dimension 4
    assert nondegenerate_cell_dimension((3, 4), 2) == 3
    assert nondegenerate_cell_dimension((1, 4), 2) == 2


# ---------------------------------------------------------------------------
# enumeration: frozen small spaces


def test_histogram_4_2_1():
    assert cell_histogram(4, 2, 1) == {0: 1, 1: 1, 2: 2, 3: 1}


def test_histogram_5_2_2():
    assert cell_histogram(5, 2, 2) == {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1}


def test_enumeration_order_and_exclusions():
    sigs = [sig.jumps for sig in enumerate_orbit_signatures(5, 2, 2)]
    # pairs (2,5) and (3,4) have quotient jumps summing to 2r+1 = 5
    assert sigs == [(1, 2), (1, 3), (1, 4), (1, 5),
                    (2, 3), (2, 4), (3, 5), (4, 5)]
    assert is_admissible(OrbitSignature((2, 4)), 5, 2, 2)
    assert not is_admissible(OrbitSignature((2, 5)), 5, 2, 2)
    assert not is_admissible(OrbitSignature((3, 4)), 5, 2, 2)


@pytest.mark.parametrize("n", range(13))
def test_enumerate_cells_matches_brute_force(n):
    for r in range(n // 2 + 1):
        k = n - 2 * r
        for d in range(k + r + 1):
            expected = [(jumps, orbit_dimension(OrbitSignature(jumps), n, d, r))
                        for jumps in combinations(range(1, n + 1), d)
                        if pairwise_ok(jumps, k, r)]
            assert enumerate_cells(n, d, r) == expected, (n, d, r)


@pytest.mark.parametrize("n", range(15))
def test_histogram_counts_the_enumerated_dimensions(n):
    # the histogram multiplies block counts; the enumeration lists cells
    for r in range(n // 2 + 1):
        for d in range(n - r + 1):
            assert cell_histogram(n, d, r) == Counter(
                p for _, p in enumerate_cells(n, d, r)), (n, d, r)


def test_histogram_never_walks_the_cells(monkeypatch):
    # 12 million cells: about a minute to walk one by one
    def refuse(*args):
        raise AssertionError("cell_histogram enumerated the cells")
    monkeypatch.setattr(cells, "enumerate_cells", refuse)
    report = verify_restriction_bounds_degenerate(28, 14, 4)
    assert report.passed and report.histogram_matches


@st.composite
def jumps_in_a_space(draw):
    r = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=0, max_value=8))
    n = k + 2 * r
    # one position past n, so that out-of-range signatures are drawn too
    jumps = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=n + 1),
                                      max_size=k + r))))
    return n, k, r, jumps


@settings(max_examples=300, deadline=None)
@given(jumps_in_a_space())
def test_pair_condition_matches_pairwise_definition(space):
    n, k, r, jumps = space
    expected = pairwise_ok(jumps, k, r)
    assert _pair_condition_ok(jumps, k, r) == expected
    in_range = not jumps or jumps[-1] <= n
    assert is_admissible(OrbitSignature(jumps), n, len(jumps), r) \
        == (expected and in_range)


def test_space_validation():
    with pytest.raises(ValueError):
        enumerate_orbit_signatures(3, 1, 2)        # 2r > n
    with pytest.raises(ValueError):
        enumerate_orbit_signatures(4, 4, 2)        # d > k + r
    for bad in ((3, 1, 2), (4, 4, 2), (-1, 0, 0), (4, -1, 1)):
        with pytest.raises(ValueError):
            enumerate_cells(*bad)
    with pytest.raises(ValueError):
        orbit_dimension(OrbitSignature((2, 5)), 5, 2, 2)
    with pytest.raises(ValueError):
        orbit_dimension(OrbitSignature((1,)), 5, 2, 2)


# ---------------------------------------------------------------------------
# degenerate limits agree with classical counts


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5))
def test_r_zero_is_the_ordinary_grassmannian(n, d):
    if d > n:
        d = n
    hist = cell_histogram(n, d, 0)
    assert sum(hist.values()) == comb(n, d)
    for p in range(grassmannian_dimension(d, n) + 1):
        assert hist.get(p, 0) == count_in_box(p, n - d, d)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=4))
def test_maximal_nondegenerate_case(r):
    hist = cell_histogram(2 * r, r, r)
    assert sum(hist.values()) == 2 ** r
    dim = isotropic_dimension(r, r)
    for q in range(dim + 1):
        assert hist.get(dim - q, 0) == count_strict_bounded(q, r)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=5))
def test_decomposition_matches_histogram(n, r, d):
    r = min(r, n // 2)
    k = n - 2 * r
    d = min(d, k + r)
    table = chow_ranks_decomposition(n, d, r)
    assert dict(table.entries) == cell_histogram(n, d, r)
    assert table.valid_below is None


def test_decomposition_p_max_truncates():
    table = chow_ranks_decomposition(5, 2, 2, p_max=2)
    assert dict(table.entries) == {0: 1, 1: 1, 2: 2}


# ---------------------------------------------------------------------------
# restriction bounds


def test_restriction_bounds_5_2_2():
    report = verify_restriction_bounds_degenerate(5, 2, 2)
    assert report.passed
    assert report.histogram_matches
    assert report.bound == 3
    assert report.first_violation is None
    by_p = {p: (lg, g) for p, lg, g in report.rows}
    # equality holds through dimension 3; above it the ambient G(2,5)
    # pulls ahead
    assert by_p[0] == (1, 1)
    assert by_p[3] == (2, 2)
    assert by_p[4] == (1, 2)
    obj = report.to_json_obj()
    json.dumps(obj)
    assert obj["equality_bound"] == 3


# rows of verify_restriction_bounds_degenerate with p_max past d(n-d),
# recorded when each ambient rank was a separate count_box_partitions call
_ROWS_PAST_TOP = {
    (5, 2, 1, 9): [[0, 1, 1], [1, 1, 1], [2, 2, 2], [3, 2, 2], [4, 2, 2],
                   [5, 1, 1], [6, 0, 1], [7, 0, 0], [8, 0, 0], [9, 0, 0]],
    (6, 3, 1, 13): [[0, 1, 1], [1, 1, 1], [2, 2, 2], [3, 3, 3], [4, 3, 3],
                    [5, 3, 3], [6, 2, 3], [7, 1, 2], [8, 0, 1], [9, 0, 1],
                    [10, 0, 0], [11, 0, 0], [12, 0, 0], [13, 0, 0]],
    (4, 2, 2, 7): [[0, 1, 1], [1, 1, 1], [2, 1, 2], [3, 1, 1], [4, 0, 1],
                   [5, 0, 0], [6, 0, 0], [7, 0, 0]],
}


@pytest.mark.parametrize("space", sorted(_ROWS_PAST_TOP))
def test_restriction_rows_past_the_ambient_top(space):
    report = verify_restriction_bounds_degenerate(*space)
    assert report.passed and report.first_violation is None
    assert report.rows == _ROWS_PAST_TOP[space]


def test_restriction_series_stop_at_the_ambient_top(monkeypatch):
    # a huge p_max lists zero rows past d(n-d) = 6 but builds no longer series
    lengths = []
    real = cells.multiply_by_factors

    def recording(series, *args):
        lengths.append(len(series))
        return real(series, *args)

    for module in (cells, partitions):
        monkeypatch.setattr(module, "multiply_by_factors", recording)
    report = verify_restriction_bounds_degenerate(5, 2, 1, 10**5)
    assert report.passed and len(report.rows) == 10**5 + 1
    assert report.rows[6:8] == [[6, 0, 1], [7, 0, 0]]
    assert lengths and max(lengths) <= 7


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=4))
def test_restriction_bounds_sweep(n, r, d):
    r = min(r, n // 2)
    d = min(d, (n - 2 * r) + r)
    report = verify_restriction_bounds_degenerate(n, d, r)
    assert report.passed, report.first_violation
