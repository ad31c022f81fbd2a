"""Exact integer elimination against rational-arithmetic oracles."""

from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from degenloci.intlinalg import (
    cokernel,
    elementary_divisors,
    fraction_free_echelon,
    integer_rank,
    rank_mod_prime,
    torsion_invariants,
)


def rational_rank(rows):
    """(rank, pivot columns) by Gaussian elimination over Fraction; shares
    nothing with the integer eliminations."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank, pivots = 0, []
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        rank += 1
        pivots.append(col)
    return rank, pivots


def rational_determinant(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            factor = m[i][col] * inv
            if factor:
                m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    return det


def minor_gcds(rows):
    """[D_1, .., D_rank], D_k the gcd of the k x k minors; the k-th
    elementary divisor is D_k / D_(k-1) (Smith, 1861).  Stdlib only, meant
    for matrices up to 5 x 5."""
    out = []
    for k in range(1, min(len(rows), len(rows[0]) if rows else 0) + 1):
        g = 0
        for picked in combinations(rows, k):
            for cols in combinations(range(len(rows[0])), k):
                minor = rational_determinant([[row[j] for j in cols] for row in picked])
                g = gcd(g, int(minor))
        if not g:
            break
        out.append(g)
    return out


def divisors_from_minors(rows):
    gcds = minor_gcds(rows)
    return [b // a for a, b in zip([1] + gcds, gcds)]


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9),
                 min_size=ncols, max_size=ncols),
        min_size=1, max_size=5,
    )
)


# ---------------------------------------------------------------------------
# rank and echelon form


@given(matrices)
def test_rank_matches_rational_elimination(rows):
    assert fraction_free_echelon(rows) == rational_rank(rows)
    assert integer_rank(rows) == rational_rank(rows)[0]


@given(matrices)
def test_pivot_columns_are_consistent(rows):
    rank, pivots = fraction_free_echelon(rows)
    assert len(pivots) == rank
    assert pivots == sorted(pivots)
    ncols = len(rows[0])
    assert all(0 <= p < ncols for p in pivots)


def test_rank_of_trivial_matrices():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 0], [0, 1]]) == 2


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        integer_rank([[1, 2], [3]])
    # a short zero row is ragged for every dense routine
    with pytest.raises(ValueError):
        integer_rank([[1, 2], [0]])
    with pytest.raises(ValueError):
        fraction_free_echelon([[0, 0], []])
    with pytest.raises(ValueError):
        rank_mod_prime([[1, 2], [0]], 3)
    with pytest.raises(ValueError):
        elementary_divisors([[1], [2, 3]])
    with pytest.raises(ValueError):
        torsion_invariants([[1, 2], [3]])
    with pytest.raises(ValueError):
        elementary_divisors([[1, 2], [0]])
    with pytest.raises(ValueError):
        torsion_invariants([[2, 4], []])


def test_cokernel_rejects_columns_outside_the_range():
    for rows in ([{0: 1, 3: 4}], [{-1: 1}], [{1: 1}, {3: 0}]):
        with pytest.raises(ValueError, match=r"column outside range\(3\)"):
            cokernel(rows, 3)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )
)
def test_hermite_pivots_multiply_to_the_determinant(rows):
    # a nonsingular Hermite basis is triangular, and its 2x2 steps have
    # determinant 1
    det = rational_determinant(rows)
    if det:
        from degenloci.intlinalg import _hermite

        basis = _hermite([list(row) for row in rows])
        assert sorted(basis) == list(range(len(rows)))
        assert prod(row[j] for j, row in basis.items()) == abs(det)


@given(matrices)
def test_hermite_basis_is_reduced_and_spans_the_rows(rows):
    from degenloci.intlinalg import _hermite

    basis = _hermite([list(row) for row in rows])
    for k, row in basis.items():
        assert not any(row[:k]) and row[k] > 0
        assert all(0 <= other[k] < row[k] for j, other in basis.items() if j < k)
    # over Q the basis spans every row and has the rank of the rows
    assert rational_rank(list(basis.values()))[0] == len(basis) == rational_rank(rows)[0]
    for row in rows:
        assert rational_rank(list(basis.values()) + [row])[0] == len(basis)


# ---------------------------------------------------------------------------
# Smith form and torsion


def test_elementary_divisors_known_cases():
    assert elementary_divisors([[2, 4], [6, 8]]) == [2, 4]
    assert elementary_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert elementary_divisors([[1, 2], [3, 4]]) == [1, 2]
    assert elementary_divisors([[1, 0], [0, 1]]) == [1, 1]
    assert elementary_divisors([[0, 0]]) == []
    assert elementary_divisors([]) == []


@given(matrices)
def test_divisor_chain_and_rank(rows):
    divisors = elementary_divisors(rows)
    assert len(divisors) == rational_rank(rows)[0]
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0
    assert all(d > 0 for d in divisors)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )
)
def test_divisor_product_is_the_determinant(rows):
    det = rational_determinant(rows)
    if det:
        assert prod(elementary_divisors(rows)) == abs(det)


@st.composite
def disguised_smith_forms(draw):
    """``(U * diag(chain) * V, chain)`` for a random divisor chain and random
    unimodular U and V, built as products of elementary row and column
    operations (adding a multiple of another line, swapping, negating)."""
    nrows, ncols = draw(st.integers(1, 15)), draw(st.integers(1, 15))
    factors = draw(st.lists(st.integers(1, 4), max_size=min(nrows, ncols)))
    chain = list(accumulate(factors, mul))
    m = [[chain[i] if i == j and i < len(chain) else 0 for j in range(ncols)]
         for i in range(nrows)]
    for _ in range(draw(st.integers(0, 60))):
        on_rows = draw(st.booleans())
        lines = m if on_rows else [list(col) for col in zip(*m)]
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        f = draw(st.integers(-3, 3))
        if i == j:
            lines[i] = [-v for v in lines[i]]
        elif f:
            lines[i] = [u + f * v for u, v in zip(lines[i], lines[j])]
        else:
            lines[i], lines[j] = lines[j], lines[i]
        m = lines if on_rows else [list(row) for row in zip(*lines)]
    return m, chain


@settings(max_examples=300, deadline=None)
@given(disguised_smith_forms())
def test_elementary_divisors_recover_a_disguised_chain(case):
    rows, chain = case
    assert elementary_divisors(rows) == chain


unit_free_matrices = st.integers(min_value=1, max_value=7).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-200, 200).filter(lambda v: abs(v) != 1)
                 | st.sampled_from([0, 2, -2, 3, 6]),
                 min_size=ncols, max_size=ncols),
        min_size=1, max_size=7,
    )
)


@settings(max_examples=150, deadline=None)  # the first example imports sympy
@given(unit_free_matrices)
def test_elementary_divisors_match_sympy_without_units(rows):
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix, ZZ

    snf = normalforms.smith_normal_form(Matrix(rows), domain=ZZ)
    diagonal = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]
    assert elementary_divisors(rows) == diagonal


def test_torsion_known_cases():
    assert torsion_invariants([[2, 4], [6, 8]]) == [2, 4]
    assert torsion_invariants([[2, 0], [0, 3]]) == [6]
    assert torsion_invariants([[2, 0], [0, 2]]) == [2, 2]
    assert torsion_invariants([[1, 0], [0, 1]]) == []
    assert torsion_invariants([]) == []
    assert torsion_invariants([[0, 0]]) == []


def test_torsion_with_redundant_rows():
    # the stacked system keeps the same row span, so the certificate must
    # survive duplicated and negated rows
    base = [[2, 4], [6, 8]]
    assert torsion_invariants(base + [[-2, -4], [8, 12]]) == [2, 4]


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_elementary_divisors_match_minor_gcds(rows):
    assert elementary_divisors(rows) == divisors_from_minors(rows)


@settings(max_examples=100, deadline=None)
@given(matrices, st.sampled_from([2, 3, 5, 7]))
def test_rank_mod_prime_matches_minors(rows, p):
    # the largest k with a k x k minor nonzero mod p, that is, with D_k not
    # divisible by p; D_k divides D_(k+1), so those k form a prefix
    assert rank_mod_prime(rows, p) == sum(1 for g in minor_gcds(rows) if g % p)


def test_rank_mod_prime_known_cases():
    assert rank_mod_prime([[2, 4], [6, 8]], 2) == 0
    assert rank_mod_prime([[2, 4], [6, 8]], 5) == 2
    assert rank_mod_prime([[1, 2], [3, 4]], 2) == 1
    assert rank_mod_prime([], 3) == 0


def test_large_entries_stay_exact():
    big = 10 ** 30
    rows = [[big, big + 1], [big - 1, big]]
    # determinant is big^2 - (big^2 - 1) = 1
    assert integer_rank(rows) == 2
    assert elementary_divisors(rows) == [1, 1]
    assert torsion_invariants(rows) == []


# ---------------------------------------------------------------------------
# the unit-pivot cokernel pass against rational, minor and sympy oracles


def _sparse(rows):
    """Dense rows as the ``{column: entry}`` rows :func:`cokernel` reads,
    zero entries kept."""
    return [dict(enumerate(row)) for row in rows]


def _matrices_over(entries, size):
    return st.integers(min_value=1, max_value=size).flatmap(
        lambda ncols: st.lists(
            st.lists(st.sampled_from(entries), min_size=ncols, max_size=ncols),
            min_size=0, max_size=size,
        ).map(lambda rows: (rows, ncols))
    )


def _cokernel_matrices(size):
    # units everywhere, units sparse among larger entries, and no unit at
    # all (then the whole matrix is the residual)
    return st.one_of(*(_matrices_over(entries, size) for entries in (
        [-1, 0, 0, 1], list(range(-9, 10)), [0, 0, 2, -2, 3, -4, 6])))


cokernel_matrices = _cokernel_matrices(6)


def _free_columns(rows, ncols):
    """The complement of the right-greedy column basis: the non-pivot columns
    of rational elimination run on the columns reversed."""
    _, pivots = rational_rank([row[::-1] for row in rows])
    return [j for j in range(ncols) if ncols - 1 - j not in pivots]


def _with_stacked_rows(rows):
    """The rows followed by a duplicate, a negation and a sum of two of them:
    the same row span, hence the same cokernel."""
    if not rows:
        return rows
    first, last = rows[0], rows[-1]
    return rows + [first, [-x for x in last], [x + y for x, y in zip(first, last)]]


@settings(max_examples=300)
@given(cokernel_matrices, st.booleans())
def test_cokernel_matches_echelon_and_smith(case, stacked):
    rows, ncols = case
    if stacked:
        rows = _with_stacked_rows(rows)
    rank, torsion, free, _ = cokernel(_sparse(rows), ncols)
    assert rank == rational_rank(rows)[0]
    assert free == _free_columns(rows, ncols)
    divisors = elementary_divisors(rows)
    assert torsion == [d for d in divisors if d > 1]
    assert torsion_invariants(rows) == torsion


@settings(max_examples=100, deadline=None)  # the first example imports sympy
@given(cokernel_matrices, st.booleans())
def test_cokernel_matches_sympy_smith_form(case, stacked):
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix, ZZ

    rows, ncols = case
    if not rows:
        return
    if stacked:
        rows = _with_stacked_rows(rows)
    snf = normalforms.smith_normal_form(Matrix(rows), domain=ZZ)
    diagonal = [abs(snf[i, i]) for i in range(min(len(rows), ncols)) if snf[i, i]]
    rank, torsion, _, _ = cokernel(_sparse(rows), ncols)
    assert rank == len(diagonal)
    assert torsion == [d for d in diagonal if d > 1]


@settings(max_examples=150, deadline=None)
@given(_cokernel_matrices(5))
def test_cokernel_matches_minor_gcds(case):
    rows, ncols = case
    rank, torsion, free, certified = cokernel(_sparse(rows), ncols)
    divisors = divisors_from_minors(rows)
    assert rank == len(divisors)
    assert torsion == [d for d in divisors if d > 1]
    # the rows and the free unit vectors have full rank; their maximal
    # minors have gcd the order of the quotient they leave, which is the
    # order of the torsion exactly when the free columns are a Z-basis
    stacked = rows + [[int(j == f) for j in range(ncols)] for f in free]
    assert certified == (minor_gcds(stacked)[ncols - 1] == prod(divisors))


@settings(max_examples=300)
@given(cokernel_matrices, st.booleans())
# both rows hold a unit, but neither at its largest column, so both wait
# and the whole matrix is the residual
@example(([[0, 1, 2], [2, 1, 3]], 3), False)
# clearing the pivot of column 2 from the second row leaves -1 at its new
# largest column 1, which only the reduced row shows
@example(([[0, 1, 1], [2, 3, 4]], 3), False)
# the first row has no unit at its largest column until the second row's
# pivot clears column 1, so it waits for the next pass
@example(([[2, 3], [1, 1]], 2), False)
def test_unit_pass_leaves_no_unit(case, stacked):
    from degenloci.intlinalg import _sparse_rows, _unit_pivots

    rows, ncols = case
    if stacked:
        rows = _with_stacked_rows(rows)
    pivots, residual = _unit_pivots(_sparse_rows(_sparse(rows), ncols))
    # every pivot row keeps its pivot as its largest column, so the pivot
    # rows and an echelon form of the residual have distinct largest columns
    for c, row in pivots.items():
        assert row[c] == 1 and max(row) == c
        assert not set(row) & (set(pivots) - {c})
    assert not any(set(row) & set(pivots) for row in residual)
    assert all(row and row[max(row)] not in (1, -1) for row in residual)
    dense = [[row.get(j, 0) for j in range(ncols)] for row in residual]
    assert len(pivots) + rational_rank(dense)[0] == rational_rank(rows)[0]


def test_cokernel_known_cases():
    assert cokernel(_sparse([[2, 0], [0, 3]]), 2) == (2, [6], [], True)
    assert cokernel(_sparse([[2, 4], [6, 8], [-2, -4], [8, 12]]), 2) == (
        2, [2, 4], [], True)
    # with a residual the free columns need not span over Z: modulo
    # torsion, column 0 is -2 times column 1, so columns 0 and 2 span an
    # index-2 sublattice (the pivot 4 against the divisor 2)
    assert cokernel(_sparse([[2, 4, 0]]), 3) == (1, [2], [0, 2], False)
    assert cokernel([{0: 2, 1: 4}], 3) == (1, [2], [0, 2], False)
    # the residual's pivot 2 is its divisor: column 1 spans the free part
    assert cokernel(_sparse([[2, 0]]), 2) == (1, [2], [1], True)
    assert cokernel([], 3) == (0, [], [0, 1, 2], True)
    assert cokernel(_sparse([[0, 0]]), 2) == (0, [], [0, 1], True)
    # each pivot row writes its pivot column over column 0
    assert cokernel(_sparse([[1, 1, 0], [0, 1, 1]]), 3) == (2, [], [0], True)
    # no unit at all: the residual's Hermite basis, columns reversed, leads
    # at columns 2 and 1
    assert cokernel(_sparse([[2, 4, 6], [4, 2, 0]]), 3) == (2, [2, 6], [0], True)
    # units only left of a larger entry: every row waits, and the residual
    # leads at columns 3 and 0, then 2 and 1; modulo torsion column 2 is
    # -2 times column 3, and column 0 is 6 times column 2
    assert cokernel(_sparse([[1, 0, 2, 4], [0, 0, 2, 4]]), 4) == (
        2, [2], [1, 2], False)
    assert cokernel(_sparse([[1, 3, 0, 0], [0, 2, 4, 0], [0, 0, 0, 0]]), 4) == (
        2, [2], [0, 3], False)
    # a unit pivot at column 2 beside a residual at column 1
    assert cokernel(_sparse([[1, 0, 1], [0, 2, 0]]), 3) == (2, [2], [0], True)
    assert cokernel([], 0) == (0, [], [], True)
    # every case agrees with rational elimination on reversed columns
    cases = [([[2, 4, 0]], 3), ([[1, 1, 0], [0, 1, 1]], 3),
             ([[2, 4, 6], [4, 2, 0]], 3), ([[1, 0, 2, 4], [0, 0, 2, 4]], 4),
             ([[1, 3, 0, 0], [0, 2, 4, 0], [0, 0, 0, 0]], 4),
             ([[1, 0, 1], [0, 2, 0]], 3)]
    for rows, ncols in cases:
        assert cokernel(_sparse(rows), ncols)[2] == _free_columns(rows, ncols)


def test_cokernel_leaves_its_input_unchanged():
    # the unit pass reduces the second row to {0: 1} and clears column 0
    # from the first, and the zero entry is dropped, all on copies
    rows = [{0: 1, 1: 1, 2: 0}, {0: 1, 1: 2}]
    assert cokernel(rows, 3) == (2, [], [2], True)
    assert rows == [{0: 1, 1: 1, 2: 0}, {0: 1, 1: 2}]
    assert list(rows[0]) == [0, 1, 2]


@pytest.mark.parametrize("call", [
    lambda: elementary_divisors([[2.5, 0], [0, 3]]),
    lambda: torsion_invariants([[2, 0], [0, 3.0]]),
    lambda: cokernel(_sparse([[1.9, 0], [0, 2]]), 2),
    lambda: cokernel(_sparse([[0.0, 1]]), 2),
    lambda: cokernel([{0.0: 1}], 2),
    lambda: fraction_free_echelon([["3", 0]]),
    lambda: integer_rank([[0.0, 0]]),
    lambda: rank_mod_prime([[4.0, 1]], 2),
], ids=["divisors", "torsion", "cokernel", "cokernel-zero", "cokernel-column",
        "echelon", "rank-zero", "mod-prime"])
def test_non_integer_entries_are_rejected(call):
    # entries are read exactly, never truncated, so 2.5 cannot pass as 2
    with pytest.raises(TypeError):
        call()
