"""Exact linear algebra over the integers.

Graded ring tables need, per graded piece, the rank of a relation matrix A,
the torsion of its cokernel and a monomial basis of the quotient.  One
elimination serves every routine here: :func:`_hermite`, a reduced Hermite
reduction by unimodular 2x2 extended-gcd steps (after Kannan and Bachem,
SIAM J. Comput. 8, 1979), run sparse over rows ``{column: entry}`` in the
way Dumas, Saunders and Villard ("On efficient sparse integer matrix Smith
normal form computations", J. Symbolic Comput. 32, 2001) run their unit
pivots.  Each pivot is its row's largest column, made positive, and a
pivot 1 is cleared from every other row, so with k unit pivots the
other ("wide") pivot rows vanish on every unit pivot column and

    Smith(A) = I_k + Smith(wide rows).

:func:`cokernel` reads everything off one such basis: the rank, the
torsion (the Smith form of the wide rows), the monomial basis (the
columns that are not pivots) and a certificate that this basis is a
Z-basis: the product of the wide pivots equals that of the elementary
divisors.  The dense routines are readings of the same elimination run on
reversed columns: rank and pivot columns (:func:`fraction_free_echelon`,
:func:`integer_rank`), the Smith form of a basis transposed and reduced
again until it is diagonal (:func:`elementary_divisors`), and from that
the torsion and the rank modulo a prime.  :func:`cokernel` reads sparse
rows ``{column: entry}``, the format :func:`degenloci.rings.relation_rows`
builds; the other routines read dense lists of rows.  Entries are read
with ``operator.index`` (a float or a string raises TypeError); everything
stays in exact arithmetic.
"""

from __future__ import annotations

from math import gcd, prod
from operator import index
from typing import Iterable, Mapping, Sequence


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b, for a > 0; (a, 1, 0) when
    a divides b."""
    g, r, x, u, y, v = a, abs(b), 1, 0, 0, 1
    while r:
        q = g // r
        g, r, x, u, y, v = r, g - q * r, u, x - q * u, v, y - q * v
    return g, x, y if b > 0 else -y


def _subtract(target: dict[int, int], factor: int, source: dict[int, int]) -> None:
    """``target -= factor * source`` in place, dropping entries that cancel;
    ``factor`` is nonzero."""
    for j, v in source.items():
        w = target.get(j, 0) - factor * v
        if w:
            target[j] = w
        else:
            del target[j]


def _combine(a: int, u: dict[int, int], b: int, v: dict[int, int]) -> dict[int, int]:
    """``a * u + b * v`` as a new sparse row without zero entries."""
    out = {j: a * u.get(j, 0) + b * v.get(j, 0) for j in u.keys() | v.keys()}
    return {j: w for j, w in out.items() if w}


def _floor(row: dict[int, int], wide: dict[int, dict[int, int]], below: int) -> None:
    """Reduce the row's entries at the wide pivot columns left of ``below``
    modulo their pivots, largest column first: a pivot row holds no column
    right of its pivot and no unit pivot column, so one pass suffices."""
    for c in sorted((c for c in wide if c < below), reverse=True):
        f = row.get(c, 0) // wide[c][c]
        if f:
            _subtract(row, f, wide[c])


def _hermite(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Reduced Hermite basis of the span of sparse rows without zero
    entries, keyed by pivot column; the rows are consumed.

    Each pivot is its row's largest column and is positive; every other
    entry in a pivot column lies in [0, pivot), so a pivot 1 is the only
    entry of its column.  Rows are inserted one at a time.  An inserted row
    is cleared of the unit pivot columns it holds (the pivot rows hold no
    other unit pivot column, so one pass suffices), then reduced modulo
    the wide pivots.  Then its largest column either takes a new pivot or
    meets a wide pivot, where a 2x2 extended-gcd step of determinant 1
    gives the pivot row the positive gcd and leaves the rest of the row to
    insert.  Each pivot that is set is reduced out of the other rows, so a
    +-1 pivot costs one sparse subtraction per row that holds its column.
    """
    units: dict[int, dict[int, int]] = {}
    wide: dict[int, dict[int, int]] = {}
    for row in rows:
        for c in [c for c in row if c in units]:
            _subtract(row, row[c], units[c])
        while row:
            if wide:
                _floor(row, wide, max(row) + 1)
                if not row:
                    break
            c = max(row)
            piv = wide.pop(c, None)
            if piv is None:
                pivot, row = row, None
            else:
                g, x, y = _xgcd(piv[c], row[c])
                pivot = _combine(x, piv, y, row)
                row = _combine(piv[c] // g, row, -(row[c] // g), piv)
            if pivot[c] < 0:
                pivot = {j: -v for j, v in pivot.items()}
            if wide:
                _floor(pivot, wide, c)
            p = pivot[c]
            for basis in (units, wide):
                for other in basis.values():
                    if c in other:
                        f = other[c] // p
                        if f:
                            _subtract(other, f, pivot)
                            if wide:
                                _floor(other, wide, c)
            (units if p == 1 else wide)[c] = pivot
    return {**units, **wide}


def _smith(rows: Iterable[dict[int, int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of sparse rows without
    zero entries, divisibility-ordered; the rows are consumed.

    The Hermite basis is transposed, keyed by the order of its pivot
    columns, and reduced again until it is diagonal; it comes from the rows
    by unimodular row and column steps only, so both have the same Smith
    form.  Pairwise gcd and lcm then put the diagonal in divisibility
    order.
    """
    basis = _hermite(rows)
    while any(len(row) > 1 for row in basis.values()):
        columns: dict[int, dict[int, int]] = {}
        for k, c in enumerate(sorted(basis)):
            for j, v in basis[c].items():
                columns.setdefault(j, {})[k] = v
        basis = _hermite(columns.values())
    divisors = [row[c] for c, row in sorted(basis.items())]
    for i in range(len(divisors)):
        for k in range(i + 1, len(divisors)):
            g = gcd(divisors[i], divisors[k])
            divisors[i], divisors[k] = g, divisors[i] // g * divisors[k]
    if any(b % a for a, b in zip(divisors, divisors[1:])):
        raise ArithmeticError("Smith reduction produced a broken chain")
    return divisors


def _dense(rows: Sequence[Sequence[int]]) -> list[dict[int, int]]:
    """Dense rows read with ``operator.index`` as sparse rows on reversed
    columns, column j at key -j, so that a pivot is a row's leftmost
    column; raises ValueError on rows of different lengths."""
    m = [list(map(index, row)) for row in rows]
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return [{-j: v for j, v in enumerate(row) if v} for row in m]


def fraction_free_echelon(rows: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """(rank, pivot column indices) of the Hermite basis on reversed
    columns.

    Each pivot is then its row's leftmost column, and the pivots of any
    echelon form of the row span are its left-greedy column basis, so they
    are the pivots of fraction-free elimination; on reversed columns they
    are the right-greedy basis, whose complement :func:`cokernel` reports.
    """
    basis = _hermite(_dense(rows))
    return len(basis), sorted(-c for c in basis)


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the length of the Hermite basis."""
    return fraction_free_echelon(rows)[0]


def elementary_divisors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered.

    The length of the result is the rank; entries greater than 1 are the
    torsion invariants of the cokernel ``Z^ncols / rowspan``.  Certificate:
    the Hermite basis of the rows, transposed and reduced again until it is
    diagonal, comes from A by unimodular row and column steps only, so A
    and the diagonal have the same Smith form.
    """
    return _smith(_dense(rows))


def rank_mod_prime(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of the matrix over the field with p elements: the number of
    elementary divisors p does not divide, since the unimodular steps of
    the Smith reduction stay invertible modulo p."""
    return sum(1 for d in elementary_divisors(rows) if d % p)


def torsion_invariants(rows: Sequence[Sequence[int]]) -> list[int]:
    """Elementary divisors greater than 1 (the torsion of the cokernel)."""
    return [d for d in elementary_divisors(rows) if d > 1]


def _sparse_rows(rows: Iterable[Mapping[int, int]], ncols: int) -> list[dict[int, int]]:
    """Copies of the rows ``{column: entry}`` with zero entries and empty
    rows dropped, read with ``operator.index``; raises ValueError on a
    column outside ``range(ncols)``."""
    out = []
    for row in rows:
        columns = list(map(index, row))
        if columns and (min(columns) < 0 or max(columns) >= ncols):
            raise ValueError(f"column outside range({ncols})")
        sparse = {j: v for j, v in zip(columns, map(index, row.values())) if v}
        if sparse:
            out.append(sparse)
    return out


def cokernel(rows: Iterable[Mapping[int, int]], ncols: int
             ) -> tuple[int, list[int], list[int], bool]:
    """One Hermite basis of the cokernel ``Z^ncols / rowspan`` of sparse
    rows ``{column: entry}``, which it leaves unchanged.

    Returns (rank of the row span, torsion invariants, free columns, whether
    the free columns are a Z-basis of the cokernel modulo torsion).  The
    rows are inserted by ascending largest column, which keeps ring pieces
    sparse.  The rank is the number of pivots.  The wide pivot rows vanish
    on every unit pivot column, so the torsion is the Smith form of those
    rows.  The free columns are the columns that are not pivots: each pivot
    is its row's largest column, so the pivots are the right-greedy column
    basis and, with columns in a monomial order, the free columns are the
    standard monomials.  Certificate: adding the free unit vectors to the
    rows leaves a quotient of order the product of the pivots (on the
    pivot columns the basis is triangular), and the torsion has order the
    product of the elementary divisors; the free columns are a Z-basis
    exactly when the two agree, as they do when every pivot is 1.
    """
    basis = _hermite(sorted(_sparse_rows(rows, ncols), key=max))
    pivots = prod(row[c] for c, row in basis.items())
    divisors = _smith([row for c, row in basis.items() if row[c] > 1])
    free = [j for j in range(ncols) if j not in basis]
    return (len(basis), [d for d in divisors if d > 1], free,
            pivots == prod(divisors))
