"""Cell combinatorics of isotropic Grassmannians with degenerate forms.

The space of d-planes isotropic for a skew form of corank k = n - 2r on an
n-dimensional space is stratified into affine cells by the incidence jumps
of a fixed adapted flag.  A cell is recorded by its jump sequence
``1 <= lam_1 < ... < lam_d <= n``; positions with ``lam_i <= k`` see only
the kernel of the form (an ordinary Grassmannian direction), the others
land in the nondegenerate quotient.

Nonemptiness is the pair condition ``(lam_i - k) + (lam_j - k) != 2r + 1``
for the quotient positions.  So for each kernel incidence c a cell is a
kernel block (any c-subset of 1..k) next to a quotient block (d - c
pair-free positions in 1..2r); its dimension is the two blocks' cell
dimensions plus the mixed term ``(k - c)(d - c)``.  :func:`enumerate_cells`
joins the two blocks; :func:`cell_histogram` multiplies their dimension
counts, so its work is the size of the blocks, not the number of cells.
:func:`chow_ranks_decomposition` takes the same product over the ring
tables, through the box factors of the kernel Grassmannian and
``partitions.multiply_by_factors``, and :func:`verify_restriction_bounds_degenerate`
checks it against the histogram and the ambient ordinary Grassmannian.
:class:`OrbitSignature`, :func:`is_admissible` and :func:`orbit_dimension`
remain the validating reference for a single cell.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from operator import index
from typing import Iterator, Optional

from . import rings
from .partitions import box_factors, multiply_by_factors
from .tables import BettiTable, FrozenRecord, Record


class OrbitSignature(FrozenRecord):
    """Jump positions of a cell: strictly increasing integers in [1, n]."""

    __slots__ = ("jumps",)

    def __init__(self, jumps: tuple[int, ...]):
        j = tuple(map(index, jumps))
        if any(x < 1 for x in j):
            raise ValueError(f"jumps must be positive: {j}")
        if any(j[i] >= j[i + 1] for i in range(len(j) - 1)):
            raise ValueError(f"jumps must be strictly increasing: {j}")
        self._set_fields(j)

    def incidence(self, n: int) -> tuple[int, ...]:
        """The counting sequence c_1..c_n with c_j = #{i : jumps_i <= j}."""
        if self.jumps and self.jumps[-1] > n:
            raise ValueError(f"jumps exceed n={n}")
        return tuple(sum(1 for x in self.jumps if x <= j) for j in range(1, n + 1))

    def kernel_count(self, k: int) -> int:
        return sum(1 for x in self.jumps if x <= k)


def _pair_condition_ok(jumps: tuple[int, ...], k: int, r: int) -> bool:
    quotient = {x - k for x in jumps if x > k}
    # q == 2r+1-q never holds, so a position cannot pair with itself
    return all(2 * r + 1 - q not in quotient for q in quotient)


def _validate_p_max(p_max: Optional[int]) -> None:
    if p_max is not None and p_max < 0:
        raise ValueError(f"p_max must be nonnegative, got {p_max}")


def _validate_space(n: int, d: int, r: int) -> int:
    if n < 0 or d < 0 or r < 0 or 2 * r > n:
        raise ValueError(f"need 0 <= 2r <= n and d >= 0, got n={n}, d={d}, r={r}")
    k = n - 2 * r
    if d > k + r:
        raise ValueError(f"no isotropic {d}-plane exists: d > k + r = {k + r}")
    return k


def _quotient_tails(r: int, m_max: int) -> list[list[tuple[int, ...]]]:
    """Entry m: every increasing m-tuple of positions in 1..2r with no two
    summing to 2r + 1, in lexicographic order."""
    pair = 2 * r + 1
    tails: list[list[tuple[int, ...]]] = [[()]]
    for m in range(m_max):
        tails.append([up + (q,) for up in tails[m]
                      for q in range(up[-1] + 1 if up else 1, pair)
                      if pair - q not in up])
    return tails


def _blocks(n: int, d: int, r: int) -> Iterator[tuple]:
    """Per kernel incidence c: the c-subsets of 1..k, and the quotient tails
    as jumps past k, each with the cell dimension less the kernel jump sum."""
    k = _validate_space(n, d, r)
    low = max(0, d - r)
    tails = _quotient_tails(r, d - low)
    for c in range(low, min(d, k) + 1):
        shift = (k - c) * (d - c) - c * (c + 1) // 2
        yield (combinations(range(1, k + 1), c),
               [(tuple(k + q for q in up),
                 nondegenerate_cell_dimension(up, r) + shift) for up in tails[d - c]])


def enumerate_cells(n: int, d: int, r: int) -> list[tuple[tuple[int, ...], int]]:
    """``(jumps, dimension)`` of every nonempty cell, in lexicographic order
    of jump sequences; the dimension is that of :func:`orbit_dimension`."""
    out: list[tuple[tuple[int, ...], int]] = []
    for lows, ups in _blocks(n, d, r):
        out += [(low + up, sum(low) + dim) for low in lows for up, dim in ups]
    out.sort()  # merges the one ascending run each c gave
    return out


def enumerate_orbit_signatures(n: int, d: int, r: int) -> list[OrbitSignature]:
    """All nonempty cells, in lexicographic order of jump sequences."""
    return [OrbitSignature(jumps) for jumps, _ in enumerate_cells(n, d, r)]


def is_admissible(sig: OrbitSignature, n: int, d: int, r: int) -> bool:
    k = _validate_space(n, d, r)
    if len(sig.jumps) != d or (sig.jumps and sig.jumps[-1] > n):
        return False
    return _pair_condition_ok(sig.jumps, k, r)


def grassmann_cell_dimension(jumps: tuple[int, ...]) -> int:
    """Dimension of the ordinary-Grassmannian cell with the given jumps."""
    return sum(x - i for i, x in enumerate(jumps, start=1))


def nondegenerate_cell_dimension(jumps: tuple[int, ...], r: int) -> int:
    """Dimension of the cell of the nondegenerate isotropic Grassmannian
    (d-planes isotropic for a symplectic form on 2r-space) with the given
    jumps: the ordinary cell dimension loses one for every pair of jump
    positions forced to pair under the form, i.e. with
    ``jumps_i + jumps_j > 2r + 1`` for i < j.

    In the maximal case d = r this reproduces the codimension-|mu| rule for
    the strict partition ``mu_j = r + 1 - jumps_j`` over the low jumps.
    """
    base = grassmann_cell_dimension(jumps)
    crossing = sum(
        1
        for a in range(len(jumps))
        for b in range(a + 1, len(jumps))
        if jumps[a] + jumps[b] > 2 * r + 1
    )
    return base - crossing


def orbit_dimension(sig: OrbitSignature, n: int, d: int, r: int) -> int:
    """Dimension of a cell: kernel block plus quotient block plus the mixed
    term (k - c)(d - c), where c counts jumps inside the kernel."""
    k = _validate_space(n, d, r)
    if not is_admissible(sig, n, d, r):
        raise ValueError(f"signature {sig.jumps} not admissible for "
                         f"(n={n}, d={d}, r={r})")
    c = sig.kernel_count(k)
    lower = tuple(x for x in sig.jumps if x <= k)
    upper = tuple(x - k for x in sig.jumps if x > k)
    return (grassmann_cell_dimension(lower)
            + nondegenerate_cell_dimension(upper, r)
            + (k - c) * (d - c))


def cell_histogram(n: int, d: int, r: int) -> dict[int, int]:
    """Number of cells of each dimension.  Each block is counted directly:
    for every kernel incidence c, the jump sums of the c-subsets of 1..k
    times the dimensions of the quotient tails, never the ring tables."""
    hist: Counter[int] = Counter()
    for lows, ups in _blocks(n, d, r):
        kernel = Counter(map(sum, lows))
        quotient = Counter(dim for _, dim in ups)
        for a, x in kernel.items():
            for b, y in quotient.items():
                hist[a + b] += x * y
    return dict(hist)


def _nondegenerate_ranks_by_dimension(d: int, r: int) -> list[int]:
    """Chow ranks A_0..A_dim of the nondegenerate isotropic Grassmannian,
    read off the Hilbert function of its ring presentation (rank in
    dimension p = rank in cohomological degree 2(dim - p))."""
    if d == 0:
        return [1]
    dim = rings.isotropic_dimension(d, r)
    table = rings.graded_table(rings.isotropic_presentation(d, r), 2 * dim)
    return [table.rank(2 * (dim - p)) for p in range(dim + 1)]


def chow_ranks_decomposition(n: int, d: int, r: int,
                             p_max: Optional[int] = None) -> BettiTable:
    """Additive Chow ranks of the degenerate isotropic Grassmannian.

    Stratifying by the kernel incidence c gives
    ``A_p = sum_c sum_(p'+p''=p-(k-c)(d-c))
    A_p'(G(c,k)) * A_p''(nondegenerate LG(d-c, 2r))``;
    the quotient factor comes from the ring tables, and each c multiplies
    it, padded by dim G(c, k) = c(k-c), by the box factors of G(c, k), then
    shifts by (k-c)(d-c).  The output must (and, per the test suite, does)
    match the histogram of orbit dimensions.
    """
    k = _validate_space(n, d, r)
    _validate_p_max(p_max)
    entries: dict[int, int] = {}
    for c in range(max(0, d - r), min(d, k) + 1):
        ranks = _nondegenerate_ranks_by_dimension(d - c, r) + [0] * (c * (k - c))
        multiply_by_factors(ranks, box_factors(c, k - c))
        for p, rank in enumerate(ranks, start=(k - c) * (d - c)):
            if rank:
                entries[p] = entries.get(p, 0) + rank
    if p_max is not None:
        entries = {p: v for p, v in entries.items() if p <= p_max}
    return BettiTable(
        entries, None,
        setup={"kind": "chow-ranks", "n": n, "d": d, "r": r, "kernel": k},
        assumptions=(),
    )


class DegenerateRestrictionReport(Record):
    __slots__ = ("n", "d", "r", "bound", "rows", "histogram_matches", "passed",
                 "first_violation")
    _json_names = {"bound": "equality_bound"}

    def __init__(self, n: int, d: int, r: int, bound: int,
                 rows: list[list[int]],  # [p, rank_locus, rank_ambient]
                 histogram_matches: bool, passed: bool,
                 first_violation: Optional[str] = None):
        self._set_fields(n, d, r, bound, rows, histogram_matches, passed,
                         first_violation)


def verify_restriction_bounds_degenerate(n: int, d: int, r: int,
                                         p_max: Optional[int] = None
                                         ) -> DegenerateRestrictionReport:
    """Check the additive consequences of restriction from the ordinary
    Grassmannian: ``rank A_p(isotropic) <= rank A_p(G(d,n))`` in every
    dimension, with equality for p <= 2(n-d-r)+1.  Also cross-checks the
    rank decomposition against the raw cell histogram.
    """
    _validate_space(n, d, r)
    _validate_p_max(p_max)
    table = chow_ranks_decomposition(n, d, r)
    hist = cell_histogram(n, d, r)
    histogram_matches = hist == dict(table.entries)
    bound = 2 * (n - d - r) + 1
    cap = max(table.max_listed_degree(), d * (n - d)) if p_max is None else p_max
    # the ambient G(d, n): partitions in a d x (n-d) box, none above d(n-d)
    ambient = multiply_by_factors([1] + [0] * min(cap, d * (n - d)),
                                  box_factors(n - d, d))
    rows: list[list[int]] = []
    passed = histogram_matches
    first: Optional[str] = None
    if not histogram_matches:
        first = "cell histogram disagrees with the rank decomposition"
    for p in range(cap + 1):
        lg = table.entries.get(p, 0)
        g = ambient[p] if p < len(ambient) else 0
        rows.append([p, lg, g])
        if lg > g:
            passed = False
            if first is None:
                first = f"rank {lg} exceeds ambient rank {g} in dimension {p}"
        if p <= bound and lg != g:
            passed = False
            if first is None:
                first = (f"expected equality in dimension {p} <= {bound}: "
                         f"{lg} != {g}")
    return DegenerateRestrictionReport(n, d, r, bound, rows,
                                       histogram_matches, passed, first)
