"""Integral cohomology rings of Grassmannians as explicit graded quotients.

Each family is described once, by its constructor, on generators ``c_1..c_d``
with ``c_i`` in cohomological degree 2i:

* :func:`grassmannian_presentation`, d-planes in n-space: kill the
  components n-d+1 .. n of the inverse of ``1 - c_1 + c_2 - ...``;
* :func:`isotropic_presentation`, isotropic d-planes in a symplectic
  2r-space: kill the components 2(r-d+1), .., 2r of the inverse of
  ``(sum c_i) * (sum (-1)^i c_i)``, after checking its odd components vanish.

Everything else reads those presentations: the restriction certificate
(:func:`_containment_certificate`) and the graded tables (rank, torsion,
integral monomial basis per degree), computed by exact integer elimination.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Optional

from .chern import ChernPoly, Monomial, cgen, monomial, series_inverse, series_product
from .errors import VerificationError
from .intlinalg import cokernel
from .partitions import BoxConstraint, enumerate_box_partitions
from .tables import FrozenRecord, Record


def grassmannian_dimension(d: int, n: int) -> int:
    return d * (n - d)


def isotropic_dimension(d: int, r: int) -> int:
    """Dimension of the space of isotropic d-planes in a symplectic 2r-space."""
    return d * (2 * r - d) - d * (d - 1) // 2


class RingPresentation(FrozenRecord):
    """A graded quotient Z[c_1..c_d] / (relations)."""

    __slots__ = ("label", "params", "num_generators", "relations")

    def __init__(self, label: str, params: tuple[tuple[str, int], ...],
                 num_generators: int, relations: tuple[ChernPoly, ...]):
        self._set_fields(label, params, num_generators, relations)

    @property
    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(2 * i for i in range(1, self.num_generators + 1))


def _chern_series(d: int, sign: int) -> list[ChernPoly]:
    """Components of ``1 + sign*c_1 + c_2 + sign*c_3 + ...`` in c_1..c_d:
    the total Chern class for sign 1, the alternating class for sign -1."""
    return [ChernPoly.one()] + [sign ** i * cgen(i) for i in range(1, d + 1)]


def grassmannian_presentation(d: int, n: int) -> RingPresentation:
    """Cohomology of the Grassmannian of d-planes in C^n."""
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    inv = series_inverse(_chern_series(d, -1), n)
    relations = tuple(inv[j] for j in range(n - d + 1, n + 1))
    return RingPresentation("grassmannian", (("d", d), ("n", n)), d, relations)


def isotropic_presentation(d: int, r: int) -> RingPresentation:
    """Cohomology of the Grassmannian of isotropic d-planes in a symplectic
    2r-space."""
    if not 1 <= d <= r:
        raise ValueError(f"need 1 <= d <= r, got d={d}, r={r}")
    kernel = series_product(_chern_series(d, 1), _chern_series(d, -1), 2 * d)
    inv = series_inverse(kernel, 2 * r)
    for j in range(1, 2 * r + 1, 2):
        if not inv[j].is_zero():
            raise VerificationError(f"odd component {j} of the inverse is nonzero")
    relations = tuple(inv[2 * m] for m in range(r - d + 1, r + 1))
    return RingPresentation("isotropic", (("d", d), ("r", r)), d, relations)


@lru_cache(maxsize=256)
def _monomials(d: int, q: int) -> tuple[tuple[tuple[int, ...], ...],
                                        tuple[Monomial, ...]]:
    """The monomials of :func:`monomials_of_half_degree` as exponent vectors
    (entry i - 1 is the exponent of ``c_i``) and as monomials sharing their
    generator names, enumerated once per (d, q): :func:`relation_rows` needs
    the same multipliers for every relation, and :func:`graded_table` calls
    it for every degree."""
    names = [f"c{i}" for i in range(1, d + 1)]
    vectors = tuple(tuple(map(lam.parts.count, range(1, d + 1)))
                    for lam in enumerate_box_partitions(q, BoxConstraint(d)))
    return vectors, tuple(monomial(zip(names, v)) for v in vectors)


def monomials_of_half_degree(num_generators: int, q: int) -> list[Monomial]:
    """Monomials in c_1..c_d of cohomological degree 2q, in the canonical
    order induced by lex-descending partition enumeration."""
    return list(_monomials(num_generators, q)[1])


def relation_rows(pres: RingPresentation,
                  q: int) -> tuple[list[dict[int, int]], tuple[Monomial, ...]]:
    """Sparse rows ``{column: coefficient}`` spanning the degree-2q piece of
    the relation ideal, column j standing for ``monos[j]``: one row per
    relation and monomial multiplier.  Columns are keyed by exponent
    vectors, so a product lands in the column of the sum of its factors'."""
    d = pres.num_generators
    vectors, monos = _monomials(d, q)
    col = {v: i for i, v in enumerate(vectors)}
    rows: list[dict[int, int]] = []
    for rel in pres.relations:
        deg = rel.homogeneous_degree()
        if deg is None or deg % 2:
            raise VerificationError("relation is zero or of odd degree")
        h = deg // 2
        if h > q:
            continue
        vector_of = dict(zip(*reversed(_monomials(d, h))))
        terms = [(vector_of[mon], coeff) for mon, coeff in rel.terms.items()]
        for m in _monomials(d, q - h)[0]:
            rows.append({col[tuple(map(add, v, m))]: c for v, c in terms})
    return rows, monos


class GradedRow(Record):
    __slots__ = ("degree", "num_monomials", "rank", "torsion", "basis")
    _json_names = {"num_monomials": "monomials"}

    def __init__(self, degree: int, num_monomials: int, rank: int,
                 torsion: tuple[int, ...], basis: tuple[Monomial, ...]):
        self._set_fields(degree, num_monomials, rank, torsion, basis)


class GradedTable(Record):
    __slots__ = ("label", "params", "max_degree", "rows")

    def __init__(self, label: str, params: dict[str, int], max_degree: int,
                 rows: list[GradedRow]):
        self._set_fields(label, params, max_degree, rows)

    def rank(self, degree: int) -> int:
        if degree < 0 or degree > self.max_degree:
            raise ValueError(f"degree {degree} outside table (max {self.max_degree})")
        return self.rows[degree].rank

    def ranks(self) -> list[int]:
        return [row.rank for row in self.rows]

    def torsion_free(self) -> bool:
        return all(not row.torsion for row in self.rows)


def graded_table(pres: RingPresentation, up_to_degree: int) -> GradedTable:
    """Rank, torsion and a monomial basis of every graded piece of the
    quotient up to the given cohomological degree: the standard monomials
    of graded revlex, c_1 > ... > c_d.  Raises VerificationError on a piece
    where :func:`cokernel` cannot certify them as a Z-basis."""
    if up_to_degree < 0:
        raise ValueError("up_to_degree must be nonnegative")
    rows: list[GradedRow] = []
    for p in range(up_to_degree + 1):
        if p % 2:
            rows.append(GradedRow(p, 0, 0, (), ()))
            continue
        rel_rows, monos = relation_rows(pres, p // 2)
        ideal_rank, torsion, free, certified = cokernel(rel_rows, len(monos))
        if not certified:
            raise VerificationError(f"degree {p}: the standard monomials are "
                                    "not a Z-basis of the free quotient")
        rows.append(GradedRow(p, len(monos), len(monos) - ideal_rank, tuple(torsion),
                              tuple(monos[i] for i in free)))
    return GradedTable(pres.label, dict(pres.params), up_to_degree, rows)


def _containment_certificate(grass: RingPresentation,
                             iso: RingPresentation) -> None:
    """Check that every relation of ``grass`` lies in the ideal of ``iso``.

    With h the inverse of ``sum (-1)^i c_i`` and s that of
    ``(sum c_i)(sum (-1)^i c_i)``, convolution gives ``h_j = sum_i c_i
    s_(j-i)``.  The relations of ``grass`` are the h_j with j > n-d, those of
    ``iso`` the s_k with k even in 2(r-d+1) .. 2r, and s_k = 0 for odd k
    (certified by :func:`isotropic_presentation`).  Raises unless every h_j
    is that combination of isotropic relations.
    """
    d, r = iso.num_generators, dict(iso.params)["r"]
    n = dict(grass.params)["n"]
    plain, lowest_relation = _chern_series(d, 1), 2 * (r - d + 1)
    for j, h_j in zip(range(n - grass.num_generators + 1, n + 1), grass.relations):
        acc = ChernPoly.zero()
        for i in range(j % 2, min(d, j) + 1, 2):  # the even k = j - i >= 0
            k = j - i
            if not lowest_relation <= k <= 2 * r:
                raise VerificationError(
                    f"h_{j} needs inverse component {k} outside the relation range")
            acc = acc + plain[i] * iso.relations[(k - lowest_relation) // 2]
        if acc != h_j:
            raise VerificationError(f"containment identity failed at index {j}")


def restriction_containment(d: int, r: int) -> bool:
    """Certify that the relations of the Grassmannian of d-planes in 2r-space
    lie in the isotropic relation ideal; True, or raises on any mismatch."""
    iso = isotropic_presentation(d, r)
    _containment_certificate(grassmannian_presentation(d, 2 * r), iso)
    return True


class RestrictionRow(Record):
    __slots__ = ("half_degree", "rank_source", "rank_target", "surjective",
                 "injective", "bijective")

    def __init__(self, half_degree: int, rank_source: int, rank_target: int,
                 surjective: bool, injective: bool):
        self._set_fields(half_degree, rank_source, rank_target, surjective,
                         injective, surjective and injective)


class RestrictionReport(Record):
    __slots__ = ("d", "r", "bound", "first_non_bijective", "rows")
    _json_names = {"bound": "bijective_bound"}

    def __init__(self, d: int, r: int, bound: int,
                 first_non_bijective: Optional[int], rows: list[RestrictionRow]):
        self._set_fields(d, r, bound, first_non_bijective, rows)


def restriction_report(d: int, n: int, r: int,
                       up_to_half_degree: Optional[int] = None) -> RestrictionReport:
    """Degreewise behaviour of restriction from the ordinary Grassmannian of
    d-planes in C^n (n = 2r) to the isotropic one, generators to generators.

    Surjectivity in every degree follows from the containment certificate
    plus the fact that the map is the identity on monomials; injectivity in
    degree 2p is rank equality.  Raises if surjectivity fails anywhere or if
    bijectivity fails for p <= 2(r-d)+1.
    """
    if n != 2 * r:
        raise ValueError(f"the isotropic side needs n = 2r, got n={n}, r={r}")
    if up_to_half_degree is not None and up_to_half_degree < 0:
        raise ValueError("up_to_half_degree must be nonnegative")
    iso, grass = isotropic_presentation(d, r), grassmannian_presentation(d, n)
    _containment_certificate(grass, iso)
    cap = isotropic_dimension(d, r) if up_to_half_degree is None else up_to_half_degree
    table_g = graded_table(grass, 2 * cap)
    table_l = graded_table(iso, 2 * cap)
    bound = 2 * (r - d) + 1
    rows: list[RestrictionRow] = []
    first_bad: Optional[int] = None
    for p in range(cap + 1):
        rank_g = table_g.rank(2 * p)
        rank_l = table_l.rank(2 * p)
        if rank_l > rank_g:
            raise VerificationError(
                f"restriction cannot be surjective at half-degree {p}: "
                f"{rank_g} -> {rank_l}")
        row = RestrictionRow(p, rank_g, rank_l, True, rank_g == rank_l)
        rows.append(row)
        if not row.bijective and first_bad is None:
            first_bad = p
        if not row.bijective and (p <= bound or d <= 1):
            raise VerificationError(
                f"expected bijectivity at half-degree {p} (bound {bound}, d={d})")
    return RestrictionReport(d, r, bound, first_bad, rows)
