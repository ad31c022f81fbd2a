"""Sparse integer polynomial algebra, Schur determinants and Q-polynomials."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from degenloci.chern import (
    ChernPoly,
    cgen,
    generator_degree,
    monomial,
    monomial_degree,
    qtilde,
    schur_determinant,
    series_inverse,
    series_product,
)

c1, c2, c3, c4, c5 = (cgen(i) for i in range(1, 6))


def small_polys():
    monomials = st.dictionaries(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=2),
        max_size=2,
    ).map(lambda e: tuple(sorted((f"c{i}", x) for i, x in e.items())))
    return st.dictionaries(
        monomials, st.integers(min_value=-4, max_value=4), max_size=3
    ).map(ChernPoly)


# ---------------------------------------------------------------------------
# ring structure


def test_generator_degree_parses_names():
    assert generator_degree("c3") == 6
    assert generator_degree("s1") == 2
    for bad in ("c0", "c", "3c", "c-1", ""):
        with pytest.raises(ValueError):
            generator_degree(bad)


def test_gen_validates():
    with pytest.raises(ValueError):
        ChernPoly.gen("q0")
    with pytest.raises(ValueError):
        ChernPoly.gen("c1", -1)
    assert ChernPoly.gen("c1", 0) == ChernPoly.one()


def test_zero_coefficients_are_dropped():
    assert (c1 - c1).is_zero()
    assert ChernPoly({(("c1", 1),): 0}).terms == {}
    assert ChernPoly.const(0).is_zero()


def test_monomial_is_canonical():
    assert monomial([("c2", 1), ("c1", 2), ("c2", 3), ("c3", 0)]) == \
        (("c1", 2), ("c2", 4))
    assert monomial([("c1", 0)]) == ()
    with pytest.raises(ValueError, match="exponent must be nonnegative"):
        monomial([("c1", -1)])
    with pytest.raises(ValueError, match="bad generator name"):
        monomial([("q0", 1)])
    with pytest.raises(TypeError):
        monomial([("c1", 1.0)])


def test_reordered_keys_sum_their_coefficients():
    poly = ChernPoly({(("c2", 1), ("c1", 1)): 1, (("c1", 1), ("c2", 1)): 2})
    assert poly == 3 * c1 * c2
    assert poly.coefficient((("c2", 1), ("c1", 1))) == 3


def test_repeated_generator_is_a_power():
    assert ChernPoly({(("c1", 1), ("c1", 1)): 1}) == c1 ** 2


def test_zero_exponent_is_one():
    assert ChernPoly({(("c1", 0),): 1}) == 1
    assert ChernPoly({(("c1", 0),): 2, (): -2}).is_zero()


@pytest.mark.parametrize("key", [(("c1", -1),), (("q0", 1),), (("c1", 1), ("c", 2))])
def test_bad_monomial_raises_at_construction(key):
    with pytest.raises(ValueError):
        ChernPoly({key: 1})
    with pytest.raises(ValueError):
        c1.coefficient(key)


@pytest.mark.parametrize("terms", [{(): 1.5}, {(): 2.0}, {(("c1", 1),): "1"},
                                   {(("c1", 1.0),): 1}])
def test_non_int_coefficient_or_exponent_raises(terms):
    with pytest.raises(TypeError):
        ChernPoly(terms)


def test_constant_hashes_like_its_int():
    for k in (-2, 0, 3):
        assert ChernPoly.const(k) == k and hash(ChernPoly.const(k)) == hash(k)
    assert len({ChernPoly.const(3), 3}) == 1
    assert len({ChernPoly.zero(), 0, c1}) == 2


def test_integer_coercion():
    assert c1 + 0 == c1
    assert 2 * c1 == c1 + c1
    assert 1 - c1 == ChernPoly.one() - c1
    assert (c1 * 3).coefficient((("c1", 1),)) == 3
    with pytest.raises(TypeError):
        series_product([1, 1.5], [1], 1)


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ChernPoly.zero()


@given(small_polys(), st.integers(min_value=0, max_value=4))
def test_power_is_repeated_product(a, n):
    expected = ChernPoly.one()
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


def test_homogeneous_degree():
    assert (c1 * c2).homogeneous_degree() == 6
    assert ChernPoly.zero().homogeneous_degree() is None
    with pytest.raises(ValueError):
        (c1 + c2).homogeneous_degree()
    assert (c1 + c2).homogeneous_part(2) == c1
    assert (c1 + c2).homogeneous_part(4) == c2


def test_substitute():
    poly = c1 ** 2 - c2
    assert poly.substitute("c1", 0) == -c2
    assert poly.substitute("c2", c1 ** 2).is_zero()
    assert poly.substitute("c9", 5) == poly


def test_string_form_is_graded_lex():
    poly = c2 - 2 * c1 ** 2 + 1
    assert str(poly) == "1 - 2*c1^2 + c2"
    assert str(ChernPoly.zero()) == "0"


def test_json_serialization_is_canonical():
    poly = c2 + 3 * c1
    assert poly.to_json_obj() == [
        {"monomial": [["c1", 1]], "coefficient": "3"},
        {"monomial": [["c2", 1]], "coefficient": "1"},
    ]


# ---------------------------------------------------------------------------
# series inversion


def test_inverse_of_one_minus_c1_is_geometric():
    s = series_inverse([ChernPoly.one(), -c1], 5)
    for j in range(6):
        assert s[j] == c1 ** j


def test_inverse_series_known_components():
    s = series_inverse([ChernPoly.one(), c1, c2], 3)
    assert s[1] == -c1
    assert s[2] == c1 ** 2 - c2
    assert s[3] == -(c1 ** 3) + 2 * c1 * c2


def test_inverse_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_inverse([c1, c1], 2)
    with pytest.raises(ValueError):
        series_inverse([ChernPoly.const(2)], 1)
    with pytest.raises(ValueError):
        series_inverse([ChernPoly.one()], -1)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6))
def test_inverse_is_an_involution(rank, cap):
    c = [ChernPoly.one()] + [cgen(i) for i in range(1, rank + 1)]
    s = series_inverse(c, cap)
    back = series_inverse(s, cap)
    for j in range(cap + 1):
        expected = c[j] if j < len(c) else ChernPoly.zero()
        assert back[j] == expected


# ---------------------------------------------------------------------------
# Schur determinants


def naive_determinant(entries):
    """Permutation-sum determinant of a matrix of polynomials; independent of
    the Laplace expansion used by the package."""
    n = len(entries)
    acc = ChernPoly.zero()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ChernPoly.const(sign)
        for i in range(n):
            term = term * entries[i][perm[i]]
        acc = acc + term
    return acc


def components(rank):
    return [ChernPoly.one()] + [cgen(i) for i in range(1, rank + 1)]


@given(
    shape=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4)
    .map(lambda xs: sorted(xs, reverse=True)),
    rank=st.integers(min_value=1, max_value=4),
)
def test_schur_matches_naive_determinant(shape, rank):
    c = components(rank)
    n = len(shape)

    def entry(i, j):
        idx = shape[i] + j - i
        if idx == 0:
            return ChernPoly.one()
        if idx < 0 or idx >= len(c):
            return ChernPoly.zero()
        return c[idx]

    matrix = [[entry(i, j) for j in range(n)] for i in range(n)]
    assert schur_determinant(shape, c) == naive_determinant(matrix)


def test_schur_known_values():
    c = components(4)
    assert schur_determinant([2], c) == c2
    assert schur_determinant([1, 1], c) == c1 ** 2 - c2
    assert schur_determinant([2, 1], c) == c1 * c2 - c3
    assert schur_determinant([], c) == ChernPoly.one()
    assert schur_determinant([1], c, size=3) == c1


def test_schur_rejects_bad_shapes():
    c = components(3)
    with pytest.raises(ValueError):
        schur_determinant([1, 2], c)
    with pytest.raises(ValueError):
        schur_determinant([2, -1], c)
    with pytest.raises(ValueError):
        schur_determinant([1, 1, 1], c, size=2)


def test_non_integer_shapes_are_rejected():
    # not truncated: schur_determinant([1.7], c) would read as c1
    c = components(4)
    cases = [
        lambda: schur_determinant([1.7], c),
        lambda: schur_determinant(["2"], c),
        lambda: schur_determinant([1], c, size=2.0),
        lambda: qtilde([2.2, 1], c),
        lambda: qtilde(["3"], c),
    ]
    for call in cases:
        with pytest.raises(TypeError):
            call()


@given(
    shape=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)
    .map(lambda xs: sorted(xs, reverse=True)),
    rank=st.integers(min_value=4, max_value=6),
)
def test_jacobi_trudi_duality(shape, rank):
    """The determinant in the inverse-series components equals the
    conjugate-shape determinant in the original components."""
    c = components(rank)
    signed = [ChernPoly.one()] + [(-1) ** i * cgen(i) for i in range(1, rank + 1)]
    cap = sum(shape) + len(shape) + 1
    h = series_inverse(signed, cap)
    conj = [sum(1 for p in shape if p > j) for j in range(shape[0])]
    lhs = schur_determinant(shape, h, size=len(shape))
    rhs = schur_determinant(conj, c, size=len(conj))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Q-polynomials


def test_qtilde_base_cases():
    c = components(5)
    assert qtilde([], c) == ChernPoly.one()
    assert qtilde([3], c) == c3
    assert qtilde([0], c) == ChernPoly.one()


def test_qtilde_two_rows():
    c = components(5)
    assert qtilde([2, 1], c) == c1 * c2 - 2 * c3
    assert qtilde([3, 1], c) == c1 * c3 - 2 * c4
    assert qtilde([3, 2], c) == c2 * c3 - 2 * c1 * c4 + 2 * c5


def test_qtilde_three_rows():
    c = components(6)
    expected = (c1 * c2 * c3 - 2 * c1 ** 2 * c4 + 2 * c1 * c5
                + 2 * c2 * c4 - 2 * c3 ** 2)
    assert qtilde([3, 2, 1], c) == expected


def test_qtilde_rejects_bad_shapes():
    c = components(4)
    with pytest.raises(ValueError):
        qtilde([2, 2, 1], c)
    with pytest.raises(ValueError):
        qtilde([1, 2], c)
    with pytest.raises(ValueError):
        qtilde([-1], c)


@given(
    weight=st.integers(min_value=0, max_value=8),
    rank=st.integers(min_value=1, max_value=4),
)
def test_qtilde_is_homogeneous(weight, rank):
    from degenloci.partitions import enumerate_strict_partitions

    c = components(rank)
    for mu in enumerate_strict_partitions(weight, rank):
        poly = qtilde(mu.parts, c)
        if not poly.is_zero():
            assert poly.homogeneous_degree() == 2 * weight


def test_monomial_degree_helper():
    assert monomial_degree((("c2", 3), ("c1", 1))) == 14
    assert monomial_degree(()) == 0
