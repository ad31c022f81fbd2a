"""Exact linear algebra over the integers.

Graded ring tables need, per graded piece, the rank of a relation matrix A,
the torsion of its cokernel and a monomial basis of the quotient.  Two
eliminations serve every routine here.  :func:`_unit_pivots` is a sparse
pass that inserts the rows one at a time and pivots a row on its largest
column when that entry is +-1 (after Dumas, Saunders and Villard, "On
efficient sparse integer matrix Smith normal form computations", J. Symbolic
Comput. 32, 2001).  Every operation of that pass is unimodular, so with k
unit pivots

    Smith(A) = I_k + Smith(residual).

:func:`_hermite` is a reduced Hermite reduction by unimodular 2x2
extended-gcd steps (after Kannan and Bachem, SIAM J. Comput. 8, 1979, and
Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987).  The dense routines
are readings of it: rank and pivot columns (:func:`fraction_free_echelon`,
:func:`integer_rank`), the Smith form of a basis reduced until diagonal
(:func:`elementary_divisors`), and from that the torsion and the rank
modulo a prime.  :func:`cokernel` runs the unit pass and reduces its
residual once; that one Hermite basis gives the torsion, the monomial
basis (the columns that are neither unit pivots nor its pivots read from
the right) and a certificate that this basis is a Z-basis: the product of
its pivots equals that of the elementary divisors.  An empty residual
certifies both a free cokernel and the basis.  :func:`cokernel` reads
sparse rows ``{column: entry}``, the format
:func:`degenloci.rings.relation_rows` builds; the other routines read
dense lists of rows.  Entries are read with ``operator.index`` (a float or
a string raises TypeError); everything stays in exact arithmetic.
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


def _reduce(basis: dict[int, list[int]]) -> None:
    """Reduce every entry in a pivot column modulo that column's pivot,
    bottom row first, by subtracting multiples of the rows below."""
    cols = sorted(basis)
    for n in range(len(cols) - 2, -1, -1):
        row = basis[cols[n]]
        for k in cols[n + 1:]:
            f = row[k] // basis[k][k]
            if f:
                row = [u - f * v for u, v in zip(row, basis[k])]
        basis[cols[n]] = row


def _hermite(rows: list[list[int]]) -> dict[int, list[int]]:
    """Reduced row Hermite basis of the row span, keyed by pivot column.

    Rows are inserted one at a time.  Where a row meets the basis row of its
    leading column, a 2x2 extended-gcd step of determinant 1 gives the basis
    row the positive gcd and clears that column of the inserted row.
    Whenever a pivot changes the basis is reduced again, which is what keeps
    the entries small.
    """
    basis: dict[int, list[int]] = {}
    for row in rows:
        for j in range(len(row)):
            b = row[j]
            if not b:
                continue
            piv = basis.get(j)
            if piv is None:
                basis[j] = row if b > 0 else [-v for v in row]
                _reduce(basis)
                break
            g, x, y = _xgcd(piv[j], b)
            s, t = piv[j] // g, b // g
            if s != 1:
                basis[j] = [x * v + y * u for v, u in zip(piv, row)]
                _reduce(basis)
            row = [s * u - t * v for u, v in zip(row, piv)]
    return basis


def _dense(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Copies of dense rows read with ``operator.index``; raises ValueError
    on rows of different lengths."""
    m = [list(map(index, row)) for row in rows]
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def fraction_free_echelon(rows: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """(rank, pivot column indices) of the reduced Hermite basis.

    The pivots of any echelon form of the row span are its left-greedy
    column basis, so they are the pivots fraction-free (Bareiss) elimination
    returns; on reversed columns they are the right-greedy basis, whose
    complement :func:`cokernel` reports.
    """
    basis = _hermite(_dense(rows))
    return len(basis), sorted(basis)


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the length of the reduced Hermite basis."""
    return fraction_free_echelon(rows)[0]


def elementary_divisors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered.

    The length of the result is the rank; entries greater than 1 are the
    torsion invariants of the cokernel ``Z^ncols / rowspan``.  Certificate:
    the reduced Hermite basis of the rows, transposed and reduced again
    until it is diagonal, comes from A by unimodular row and column steps
    only, so A and the diagonal have the same Smith form; pairwise gcd and
    lcm then put the diagonal in divisibility order.
    """
    m = _dense(rows)
    while True:
        basis = _hermite(m)
        if all(not any(row[j + 1:]) for j, row in basis.items()):
            break
        m = [list(col) for col in zip(*(basis[j] for j in sorted(basis)))]
    divisors = [row[j] for j, row in sorted(basis.items())]
    for i in range(len(divisors)):
        for k in range(i + 1, len(divisors)):
            g = gcd(divisors[i], divisors[k])
            divisors[i], divisors[k] = g, divisors[i] // g * divisors[k]
    if any(b % a for a, b in zip(divisors, divisors[1:])):
        raise ArithmeticError("Smith reduction produced a broken chain")
    return divisors


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


def _subtract(target: dict[int, int], factor: int, source: dict[int, int]) -> None:
    """``target -= factor * source`` in place, dropping entries that cancel."""
    for j, v in source.items():
        w = target.get(j, 0) - factor * v
        if w:
            target[j] = w
        else:
            del target[j]


def _unit_pivots(rows: list[dict[int, int]]
                 ) -> tuple[dict[int, dict[int, int]], list[dict[int, int]]]:
    """Gauss-Jordan elimination on the +-1 entries at rows' largest columns.

    Inserts the rows one at a time.  Each row is cleared of the pivot
    columns it holds (the pivot rows are reduced, so one pass suffices);
    if the entry at its largest column is then +-1, the row is scaled to +1
    there and that column is cleared from the earlier pivot rows, which
    gain entries only left of their own pivots.  Otherwise the row waits,
    and the waiting rows are inserted again while the last pass added a
    pivot.  Returns the pivot rows keyed by pivot column, each +1 there and
    0 right of it and in every other pivot column, and the residual rows,
    which vanish in all pivot columns.
    """
    pivots: dict[int, dict[int, int]] = {}
    waiting, added = rows, True
    while added:
        rows, waiting, added = waiting, [], False
        for row in rows:
            for c in [c for c in row if c in pivots]:
                _subtract(row, row[c], pivots[c])
            col = max(row, default=None)
            if col is None or row[col] not in (1, -1):
                waiting.append(row)
                continue
            if row[col] < 0:
                for j in row:
                    row[j] = -row[j]
            for other in pivots.values():
                if col in other:
                    _subtract(other, other[col], row)
            pivots[col] = row
            added = True
    return pivots, [row for row in waiting if row]


def cokernel(rows: Iterable[Mapping[int, int]], ncols: int
             ) -> tuple[int, list[int], list[int], bool]:
    """One elimination pass over the cokernel ``Z^ncols / rowspan`` of
    sparse rows ``{column: entry}``, which it leaves unchanged.

    Returns (rank of the row span, torsion invariants, free columns, whether
    the free columns are a Z-basis of the cokernel modulo torsion).  The
    unit pass inserts the rows by ascending largest column, which keeps ring
    pieces sparse; its residual R vanishes on the pivots and is reduced
    once, to the Hermite basis H of R on reversed columns.  Rank and torsion
    are the unit pivots plus :func:`elementary_divisors` of H, which spans
    the lattice R spans.  The free columns complement the right-greedy
    column basis: with columns in a monomial order, the standard monomials.
    Each pivot row's largest column is its pivot, so the pivot rows and H
    have distinct largest columns, which form that basis.  Certificate:
    adding the free unit vectors to the rows leaves a quotient of order the
    product of H's pivots (on its pivot columns H is triangular), and the
    torsion has order the product of the elementary divisors; the free
    columns are a Z-basis exactly when the two agree, as they do when R is
    empty.
    """
    pivots, residual = _unit_pivots(sorted(_sparse_rows(rows, ncols), key=max))
    rest = [j for j in range(ncols - 1, -1, -1) if j not in pivots]
    basis = _hermite([[r.get(j, 0) for j in rest] for r in residual])
    divisors = elementary_divisors(list(basis.values()))
    leading = {rest[k] for k in basis}
    free = [j for j in range(ncols) if j not in pivots and j not in leading]
    certified = prod(row[k] for k, row in basis.items()) == prod(divisors)
    return (len(pivots) + len(basis), [d for d in divisors if d > 1], free,
            certified)
