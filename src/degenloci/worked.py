"""End-to-end checks of the calculators on classical geometries.

Each check computes a Betti table twice: once through the degeneracy-locus
machinery and once through an oracle that knows the answer independently
(products of projective spaces, Grassmannians, Macdonald's formula for
symmetric products).  Reports carry both tables and the first mismatch,
if any; a healthy build has none.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Optional

from .chern import ChernPoly, schur_determinant
from .loci import AmbientData, betti_degeneracy, betti_skew
from .partitions import box_factors, multiply_by_factors
from .tables import BettiTable, Record


class ExampleReport(Record):
    __slots__ = ("name", "parameters", "computed", "oracle", "match",
                 "first_mismatch", "notes")

    def __init__(self, name: str, parameters: dict, computed: object,
                 oracle: object, match: bool, first_mismatch: Optional[str] = None,
                 notes: tuple[str, ...] = ()):
        self._set_fields(name, parameters, computed, oracle, match, first_mismatch,
                         notes)


def _oracle_report(name: str, parameters: dict, table: BettiTable,
                   oracle_betti: Callable[[int], list[int]],
                   p_max: Optional[int], notes: tuple[str, ...],
                   extra_check: Optional[Callable[[list], Optional[str]]] = None
                   ) -> ExampleReport:
    """Compare ``table`` with the oracle's Betti numbers in every degree
    through ``p_max``, capped at the last proven degree; ``extra_check``
    may find a mismatch in the computed pairs that the oracle cannot."""
    cap = table.valid_below - 1 if p_max is None else min(p_max, table.valid_below - 1)
    cap = max(cap, -1)
    computed = [[p, table.rank(p)] for p in range(cap + 1)]
    oracle_b = oracle_betti(max(cap, 0))
    oracle = [[p, oracle_b[p]] for p in range(cap + 1)]
    mismatch = next((f"degree {p}: computed {b}, oracle {oracle_b[p]}"
                     for p, b in computed if b != oracle_b[p]), None)
    if mismatch is None and extra_check is not None:
        mismatch = extra_check(computed)
    return ExampleReport(name, dict(parameters, p_max=cap), computed, oracle,
                         mismatch is None, mismatch, notes)


# ---------------------------------------------------------------------------
# oracles


def product_projective_betti(a: int, b: int, p_max: int) -> list[int]:
    """Betti numbers of P^a x P^b: in degree 2q, the number of ways to split
    q between the two factors."""
    out = []
    for p in range(p_max + 1):
        if p % 2:
            out.append(0)
            continue
        q = p // 2
        out.append(sum(1 for s in range(q + 1) if s <= a and q - s <= b))
    return out


def symmetric_power_betti(g: int, d: int, p_max: int) -> list[int]:
    """Betti numbers of the d-th symmetric power of a genus-g curve by
    Macdonald's formula (Topology 1, 1962): b_p is the sum of C(2g, j) over
    j <= min(d, p) with j = p (mod 2) and (p - j)/2 <= d - j."""
    if g < 0 or d < 0:
        raise ValueError("g and d must be nonnegative")
    return [sum(comb(2 * g, j) for j in range(p % 2, min(d, p) + 1, 2)
                if (p - j) // 2 <= d - j)
            for p in range(p_max + 1)]


def grassmannian_betti(d: int, n: int, p_max: int) -> list[int]:
    """Betti numbers of the Grassmannian of d-planes in C^n: partitions in a
    d x (n-d) box, in even degrees only."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    ranks = multiply_by_factors([1] + [0] * (p_max // 2), box_factors(n - d, d))
    return [0 if p % 2 else ranks[p // 2] for p in range(p_max + 1)]


# ---------------------------------------------------------------------------
# checks


def segre_check(dim_v: int, dim_w: int, p_max: Optional[int] = None) -> ExampleReport:
    """Rank-1 maps between trivial bundles on the projectivized hom space:
    the rank <= 1 locus is the image of P(V*) x P(W), and the calculator
    must reproduce the product Betti numbers below the expected dimension."""
    if dim_v < 1 or dim_w < 1:
        raise ValueError("bundle ranks must be positive")
    e, f = sorted((dim_v, dim_w))
    n = dim_v * dim_w - 1
    table = betti_degeneracy(AmbientData.projective_space(n), e, f, 1)
    return _oracle_report(
        "segre", {"dim_v": dim_v, "dim_w": dim_w}, table,
        lambda top: product_projective_betti(dim_v - 1, dim_w - 1, top), p_max,
        (f"expected dimension {table.valid_below} equals "
         f"dim P^{dim_v - 1} x P^{dim_w - 1}",))


def _count_pluecker_monomials(computed: list[list[int]]) -> Optional[str]:
    """Below the expected dimension the box never truncates, so both sides
    must count monomials in the two generators: q//2 + 1 of them."""
    for p, rank in computed:
        if p % 2 == 0 and rank != p // 4 + 1:
            return f"degree {p}: rank {rank}, expected {p // 4 + 1} monomials"
    return None


def pluecker_check(m: int, p_max: Optional[int] = None) -> ExampleReport:
    """The rank <= 2 locus of the tautological skew form on P(Lambda^2 C^m)
    is the Grassmannian of 2-planes; compare against its box-partition
    Betti numbers below the expected dimension."""
    if m < 2:
        raise ValueError("need m >= 2")
    n = comb(m, 2) - 1
    table = betti_skew(AmbientData.projective_space(n), m, 1)
    return _oracle_report(
        "pluecker", {"m": m}, table, lambda top: grassmannian_betti(2, m, top),
        p_max,
        ("powers of the degree-4 generator contribute once per degree; "
         "an exponent scaled four-fold would overshoot the degree count",),
        _count_pluecker_monomials)


def symmetric_product_check(g: int, d: int, p_max: Optional[int] = None
                            ) -> ExampleReport:
    """Symmetric powers of a curve as rank-drop loci over its degree-d
    Picard torus; compare with Macdonald's formula below degree d.

    Needs 2d < g + 2 so that generically no degree-d divisor moves in a
    pencil and the rank-drop model really is the symmetric power.
    """
    if g < 1 or d < 1:
        raise ValueError("need g >= 1 and d >= 1")
    if 2 * d >= g + 2:
        raise ValueError(f"need 2d < g + 2 for an empty lower locus, "
                         f"got g={g}, d={d}")
    e = d + g
    f = e + g - 1 - d
    r = e - 1
    table = betti_degeneracy(AmbientData.abelian_variety(g), e, f, r)
    return _oracle_report(
        "symmetric-product", {"g": g, "d": d}, table,
        lambda top: symmetric_power_betti(g, d, top), p_max,
        (f"expected dimension {table.valid_below} equals d",))


def brill_noether_betti(g: int, d: int, s: int,
                        p_max: Optional[int] = None) -> BettiTable:
    """Betti table of the locus of degree-d divisor classes moving in a
    linear system of dimension >= s on a genus-g curve.

    Realized as a rank-drop locus over the degree-d Picard torus with
    f - r = g - d + s and e - r = s + 1, so the table is valid strictly
    below g - (s+1)(g-d+s).
    """
    if g < 1 or not 1 <= d <= g - 1 or s < 0:
        raise ValueError(f"need g >= 1, 1 <= d <= g-1, s >= 0, "
                         f"got g={g}, d={d}, s={s}")
    e = s + 1 + g
    f = e + g - 1 - d
    r = e - s - 1
    table = betti_degeneracy(AmbientData.abelian_variety(g), e, f, r)
    if p_max is not None:
        table.entries = {p: b for p, b in table.entries.items() if p <= p_max}
    table.setup = {"kind": "brill-noether", "g": g, "d": d, "s": s,
                   "dim_x": g}
    table.assumptions = (
        "no divisor class of degree d moves in dimension > s",
        "the Picard torus carries the standard theta polarization",
    )
    return table


def odd_chern_symbolic_check() -> ExampleReport:
    """Symbolic sanity check on the rank <= 2 Pluecker locus: the inverse
    total class of the kernel bundle is 1 + s1 + s2 with s1 the hyperplane
    pullback, so every odd component lies in the span of ambient pullbacks,
    while the (1,1)-determinant reduces to -s2 after killing s1."""
    s1, s2 = ChernPoly.gen("s1"), ChernPoly.gen("s2")
    components = [ChernPoly.one(), s1, s2]
    notes = []
    mismatch = None
    odd_ok = True
    for i in range(1, len(components), 2):
        comp = components[i]
        # membership in the ambient-pullback span: a polynomial in s1 alone
        if any(name != "s1" for mon in comp.terms for name, _ in mon):
            odd_ok = False
            mismatch = f"component {i} involves more than the ambient class"
    delta = schur_determinant([1, 1], components)
    reduced = delta.substitute("s1", 0)
    expected = -s2
    if reduced != expected:
        mismatch = f"(1,1)-determinant reduced to {reduced}, wanted {expected}"
    notes.append(f"(1,1)-determinant is {delta}; modulo s1 it is {reduced}")
    match = odd_ok and reduced == expected
    return ExampleReport(
        "odd-chern", {},
        {"odd_components_in_span": odd_ok, "reduced_determinant": str(reduced)},
        {"odd_components_in_span": True, "reduced_determinant": str(expected)},
        match, None if match else mismatch, tuple(notes),
    )


DEFAULT_RUNS: tuple[tuple[str, dict], ...] = (
    ("segre", {"dim_v": 2, "dim_w": 2}),
    ("segre", {"dim_v": 2, "dim_w": 3}),
    ("segre", {"dim_v": 3, "dim_w": 3}),
    ("pluecker", {"m": 4}),
    ("pluecker", {"m": 5}),
    ("pluecker", {"m": 6}),
    ("symmetric-product", {"g": 4, "d": 2}),
    ("symmetric-product", {"g": 5, "d": 3}),
    ("symmetric-product", {"g": 6, "d": 3}),
    ("odd-chern", {}),
)

CHECKS = {
    "segre": segre_check,
    "pluecker": pluecker_check,
    "symmetric-product": symmetric_product_check,
    "odd-chern": odd_chern_symbolic_check,
}


def run_examples(name: Optional[str] = None) -> list[ExampleReport]:
    """Run the bundled example checks (all of them, or one family by name)."""
    if name is not None and name not in CHECKS:
        raise ValueError(f"unknown example {name!r}; "
                         f"choose from {sorted(CHECKS)}")
    reports = []
    for check_name, params in DEFAULT_RUNS:
        if name is not None and check_name != name:
            continue
        reports.append(CHECKS[check_name](**params))
    return reports
