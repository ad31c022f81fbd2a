"""Betti numbers and threshold data for degeneracy loci.

Three flavours of locus are covered, always inside an ambient smooth
projective X whose Betti numbers are known:

* general: points where a bundle map E -> F (ranks e <= f) has rank <= r;
* skew: points where a skew-symmetric twisted map E -> E* ⊗ L has rank
  <= 2r;
* orthogonal: points where two maximal isotropic subbundles of a twisted
  orthogonal bundle meet in dimension >= r.

Below the expected dimension of the locus, its Betti numbers are those of
the ambient space shifted by a partition count; the calculators here just
evaluate those counting formulas, and refuse to answer outside the proven
degree range.  The threshold report collects the expected dimension, the
weak-Lefschetz degree, and connectedness bounds for a given setup.

What differs between the kinds is written once: :class:`MorphismSetup`
checks each kind's parameter rules, and everything else is in the kind's
:class:`_Kind` record in ``_KINDS``, which the setup reads.  The functions
below ask the setup and never test the kind themselves.
Every shifted Betti sum, of a locus or of a bundle with cellular fibers,
is one call of ``partitions.multiply_by_factors``, the one series product.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Callable, Optional, Union

from .partitions import box_factors, multiply_by_factors, strict_factors
from .tables import BettiTable, FrozenRecord, Record


class AmbientData(FrozenRecord):
    """Dimension and integral Betti numbers of the ambient space."""

    __slots__ = ("dim", "betti")

    def __init__(self, dim: int, betti: tuple[int, ...]):
        self._set_fields(dim, betti)
        b = tuple(self.betti)
        # exact data only: a float, a string or a bool is refused, not rounded
        if not all(type(x) is int for x in (self.dim, *b)):
            raise ValueError("dimension and Betti numbers must be integers")
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        if any(x < 0 for x in b):
            raise ValueError("Betti numbers must be nonnegative")
        if len(b) > 2 * self.dim + 1 and any(b[2 * self.dim + 1:]):
            raise ValueError("nonzero Betti number above twice the dimension")
        try:
            b = (b + (0,) * (2 * self.dim + 1))[: 2 * self.dim + 1]
        except OverflowError:
            raise ValueError(f"dimension {self.dim} is too large") from None
        if b[0] < 1:
            raise ValueError("b_0 must be at least 1")
        object.__setattr__(self, "betti", b)

    def h(self, p: int) -> int:
        if p < 0 or p >= len(self.betti):
            return 0
        return self.betti[p]

    @classmethod
    def point(cls) -> "AmbientData":
        return cls(0, (1,))

    @classmethod
    def projective_space(cls, n: int) -> "AmbientData":
        if n < 0:
            raise ValueError("n must be nonnegative")
        return cls(n, tuple(1 - (p % 2) for p in range(2 * n + 1)))

    @classmethod
    def abelian_variety(cls, g: int) -> "AmbientData":
        """A g-dimensional complex torus: b_p = C(2g, p)."""
        if g < 0:
            raise ValueError("g must be nonnegative")
        return cls(g, tuple(comb(2 * g, p) for p in range(2 * g + 1)))


class MorphismSetup(FrozenRecord):
    """Parameters of the degeneracy problem.

    kind "general": ranks e <= f, locus rank r, optional everywhere-rank
    bound max_rank (defaults to e).
    kind "skew": rank e, locus rank 2r, optional even everywhere-rank bound.
    kind "orthogonal": intersection jump r, ambient jump k (same parity).
    """

    __slots__ = ("kind", "e", "f", "r", "max_rank", "ambient_jump",
                 "lower_locus_empty", "amplitude_assumed")

    def __init__(self, kind: str, e: Optional[int] = None, f: Optional[int] = None,
                 r: int = 0, max_rank: Optional[int] = None,
                 ambient_jump: Optional[int] = None, lower_locus_empty: bool = True,
                 amplitude_assumed: bool = True):
        self._set_fields(kind, e, f, r, max_rank, ambient_jump,
                         lower_locus_empty, amplitude_assumed)
        if self.kind == "general":
            if self.e is None or self.f is None:
                raise ValueError("general setup needs e and f")
            if not 0 <= self.r <= self.e <= self.f:
                raise ValueError(f"need 0 <= r <= e <= f, got r={self.r}, "
                                 f"e={self.e}, f={self.f}")
            k = self.e if self.max_rank is None else self.max_rank
            if not self.r <= k <= self.e:
                raise ValueError(f"everywhere-rank bound {k} out of range")
            object.__setattr__(self, "max_rank", k)
            foreign = "ambient_jump"
        elif self.kind == "skew":
            if self.e is None or self.f is not None:
                raise ValueError("skew setup needs e only")
            if not 0 <= 2 * self.r <= self.e:
                raise ValueError(f"need 0 <= 2r <= e, got r={self.r}, e={self.e}")
            k = 2 * (self.e // 2) if self.max_rank is None else self.max_rank
            if k % 2 or not 2 * self.r <= k <= self.e:
                raise ValueError(f"everywhere-rank bound {k} must be even and "
                                 f"between 2r and e")
            object.__setattr__(self, "max_rank", k)
            foreign = "ambient_jump"
        elif self.kind == "orthogonal":
            if self.e is not None or self.f is not None:
                raise ValueError("orthogonal setup needs only r and ambient_jump")
            k = 0 if self.ambient_jump is None else self.ambient_jump
            if self.r < 0 or k < 0 or k > self.r or (self.r - k) % 2:
                raise ValueError("need 0 <= ambient_jump <= r with r - ambient_jump even")
            object.__setattr__(self, "ambient_jump", k)
            foreign = "max_rank"
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        if getattr(self, foreign) is not None:
            raise ValueError(f"{self.kind} setup takes no {foreign}")

    def codimension(self, t: int) -> int:
        """Expected codimension of the locus with r replaced by t."""
        return _KINDS[self.kind].codimension(self, t)

    @property
    def everywhere_bound(self) -> int:
        """The bound that holds on all of X, in the units of r."""
        return _KINDS[self.kind].bound(self)

    @property
    def induction(self) -> Optional[_Kind]:
        """The kind's record when it has the rank induction behind the
        Lefschetz range; orthogonal loci have none."""
        kind = _KINDS[self.kind]
        return kind if kind.step is not None else None

    def to_json_obj(self) -> dict:
        """Every field, leaving out the ones the kind does not take."""
        return {name: value for name in self.__slots__
                if (value := getattr(self, name)) is not None}


# ---------------------------------------------------------------------------
# expected dimensions and Lefschetz thresholds


def expected_dimension_general(dim_x: int, e: int, f: int, r: int) -> int:
    return dim_x - MorphismSetup("general", e=e, f=f, r=r).codimension(r)


def expected_dimension_skew(dim_x: int, e: int, r: int) -> int:
    return dim_x - MorphismSetup("skew", e=e, r=r).codimension(r)


def epsilon_general(m: int) -> int:
    """Degree allowance in the weak-Lefschetz hypothesis, general case:
    1, 2, 0, 1, 0, 1, ..."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return m + 1 if m < 2 else m % 2


def epsilon_skew(m: int) -> int:
    """Degree allowance in the weak-Lefschetz hypothesis, skew case:
    1, 2, 3, 4, 0, 1, 2, 3, 0, 1, ..."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return m + 1 if m < 4 else m % 4


class _Kind(FrozenRecord):
    """What the formulas here need to know about one kind of locus.

    ``codimension(setup, t)`` is the expected codimension with r replaced by
    t, ``bound(setup)`` the everywhere bound in the units of r.  General and
    skew loci have a rank induction and a Betti sum with a shared ``step``
    (None for orthogonal loci).  Lowering the rank by one moves the
    Lefschetz degree by ``step``; at degree m the expected dimension must
    reach the allowance ``epsilon(m)``, and lowering the rank by s must
    raise the codimension by at least ``gap(s)``.  Below the expected
    dimension, each partition with parts <= r and at most ``rows(setup)``
    rows (any number when None) adds a copy of the ambient Betti numbers
    shifted by ``step`` per box; ``assumptions`` are what this rests on
    besides a smooth projective ambient space.
    """

    __slots__ = ("codimension", "bound", "step", "epsilon", "gap", "rows",
                 "assumptions")

    def __init__(self, codimension: Callable, bound: Callable,
                 step: Optional[int] = None, epsilon: Optional[Callable] = None,
                 gap: Optional[Callable] = None, rows: Optional[Callable] = None,
                 assumptions: tuple[str, ...] = ()):
        self._set_fields(codimension, bound, step, epsilon, gap, rows, assumptions)

    def degrees(self, r: int) -> range:
        """The degrees the induction reaches from rank r."""
        return range(self.step * (r + 1))

    def max_lefschetz(self, setup: MorphismSetup, dim_x: int) -> Optional[int]:
        """Largest degree m whose rank ``r - m // step`` locus has expected
        dimension at least ``epsilon(m)``; None if there is none."""
        r = setup.r
        return max((m for m in self.degrees(r)
                    if dim_x - setup.codimension(r - m // self.step)
                    >= self.epsilon(m)), default=None)

    def allowance_holds(self, t: int) -> bool:
        """The allowance inequality of the induction at degree t."""
        return self.epsilon(t) + self.gap(t // self.step) > t


_KINDS = {
    "general": _Kind(
        codimension=lambda setup, t: (setup.f - t) * (setup.e - t),
        bound=lambda setup: setup.max_rank,
        step=2, epsilon=epsilon_general, gap=lambda s: s * (s + 2),
        rows=lambda setup: setup.e - setup.r,
        assumptions=("rank < r locus is empty", "the hom bundle is ample")),
    "skew": _Kind(
        codimension=lambda setup, t: comb(setup.e - 2 * t, 2),
        bound=lambda setup: setup.max_rank // 2,
        step=4, epsilon=epsilon_skew, gap=lambda s: s * (2 * s + 3),
        rows=lambda setup: None,
        assumptions=("rank < 2r locus is empty",
                     "the twisted square bundle is ample")),
    "orthogonal": _Kind(codimension=lambda setup, t: comb(t, 2),
                        bound=lambda setup: setup.ambient_jump),
}


def max_lefschetz_general(dim_x: int, e: int, f: int, r: int) -> Optional[int]:
    """Largest m with the restriction to the locus bijective on H^p, p <= m:
    needs m//2 <= r and expected dimension at rank r - m//2 at least
    epsilon_general(m)."""
    setup = MorphismSetup("general", e=e, f=f, r=r)
    return setup.induction.max_lefschetz(setup, dim_x)


def max_lefschetz_skew(dim_x: int, e: int, r: int) -> Optional[int]:
    setup = MorphismSetup("skew", e=e, r=r)
    return setup.induction.max_lefschetz(setup, dim_x)


class ThresholdsReport(Record):
    __slots__ = ("setup", "dim_x", "expected_dimension", "expected_codimension",
                 "epsilon_table", "max_lefschetz", "connectivity_offset",
                 "connected_if_dim_above", "notes")

    def __init__(self, setup: MorphismSetup, dim_x: int, expected_dimension: int,
                 expected_codimension: int, epsilon_table: list[list[int]],
                 max_lefschetz: Optional[int], connectivity_offset: int,
                 connected_if_dim_above: int, notes: tuple[str, ...] = ()):
        self._set_fields(setup, dim_x, expected_dimension, expected_codimension,
                         epsilon_table, max_lefschetz, connectivity_offset,
                         connected_if_dim_above, notes)


def thresholds_report(setup: MorphismSetup, dim_x: int) -> ThresholdsReport:
    """Expected dimension, weak-Lefschetz degree and connectedness bound.

    The connectivity offset is what the locus loses against the ambient
    space: a d-connected ambient gives a (d - offset)-connected locus, so an
    irreducible ambient of dimension above ``connected_if_dim_above`` has a
    connected locus.
    """
    if dim_x < 0:
        raise ValueError("dim_x must be nonnegative")
    codim = setup.codimension(setup.r)
    induction = setup.induction
    if induction is None:
        eps, lef = [], None
        notes = ["no Lefschetz range is asserted for intersection loci"]
    else:
        eps = [[m, induction.epsilon(m)] for m in induction.degrees(setup.r)]
        lef = induction.max_lefschetz(setup, dim_x)
        notes = ["Lefschetz range holds with integer coefficients"]
    offset = codim - setup.codimension(setup.everywhere_bound)
    if not setup.lower_locus_empty:
        notes.append("lower locus not assumed empty: only connectedness applies")
    if not setup.amplitude_assumed:
        notes.append("twisting not assumed ample: all bounds are conjectural here")
    return ThresholdsReport(setup, dim_x, dim_x - codim, codim, eps, lef,
                            offset, offset, tuple(notes))


# ---------------------------------------------------------------------------
# growth inequalities backing the Lefschetz induction


class GrowthReport(Record):
    __slots__ = ("checked", "passed", "failure")

    def __init__(self, checked: Optional[dict[str, int]] = None, passed: bool = True,
                 failure: Optional[str] = None):
        self._set_fields({} if checked is None else checked, passed, failure)

    def note_failure(self, msg: str) -> None:
        self.passed = False
        if self.failure is None:
            self.failure = msg


def verify_growth_inequalities(kind: str, e: int, r: int, f: Optional[int] = None,
                               t_max: int = 100) -> GrowthReport:
    """Check the inequalities that drive the induction on the rank.

    The setup must have a rank induction and a positive codimension at r:
    r < e <= f for kind "general", e >= 2r+2 for kind "skew".  The
    codimension gap ``codim(t-s) - codim(t)`` must dominate the induction's
    ``gap(s)`` -- s(s+2) for general, s(2s+3) for skew -- for
    0 <= s <= t <= r, and the allowances must satisfy
    ``epsilon(t) + gap(t // step) > t`` for t <= t_max.  Expected dimensions
    are affine in dim(X), so the gap does not depend on the ambient space.
    Failures are lemma-level bugs and are reported with a witness.
    """
    setup = MorphismSetup(kind, e=e, f=f, r=r)
    induction = setup.induction
    if induction is None or setup.codimension(r) <= 0:
        raise ValueError(f"no rank induction for a {kind} setup of codimension "
                         f"{setup.codimension(r)} at r={r}")
    report = GrowthReport()
    pairs = [(t, s) for t in range(r + 1) for s in range(t + 1)]
    for t, s in pairs:
        if setup.codimension(t - s) - setup.codimension(t) < induction.gap(s):
            report.note_failure(f"codimension gap fails at t={t}, s={s}")
    report.checked["codimension_gap"] = len(pairs)
    for t in range(t_max + 1):
        if not induction.allowance_holds(t):
            report.note_failure(f"allowance fails at t={t}")
    report.checked["allowance"] = t_max + 1
    return report


def verify_growth_sweep(max_rank: int = 12, t_max: int = 100) -> GrowthReport:
    """Run verify_growth_inequalities over every rank combination it accepts
    with e, f up to max_rank; merge the counts."""
    merged = GrowthReport()
    for kind, induction in _KINDS.items():
        if induction.step is None:
            continue  # no rank induction for this kind
        gaps = 0
        for e in range(max_rank + 1):
            for f, r in product((None, *range(e, max_rank + 1)), range(e)):
                try:
                    rep = verify_growth_inequalities(kind, e, r, f, t_max=0)
                except ValueError:
                    continue  # not a setup of this kind with an induction
                gaps += rep.checked["codimension_gap"]
                if not rep.passed:
                    where = f"e={e}" if f is None else f"e={e} f={f}"
                    merged.note_failure(f"{where}: {rep.failure}")
        merged.checked[f"{kind}_gap"] = gaps
        merged.checked[f"{kind}_allowance"] = t_max + 1
        for t in range(t_max + 1):
            if not induction.allowance_holds(t):
                merged.note_failure(f"{kind} allowance fails at t={t}")
    return merged


# ---------------------------------------------------------------------------
# Betti calculators


def _betti_below_expected(ambient: AmbientData, setup: MorphismSetup) -> BettiTable:
    """The Betti table of a general or skew locus strictly below its
    expected dimension: ``b_p = sum_q N(q) * b_(p - step*q)(X)``, where N(q)
    counts the partitions of weight q in the box of the kind's
    :class:`_Kind` record: the ambient series times that box's factors at
    stride ``step``."""
    box = setup.induction
    valid_below = max(ambient.dim - setup.codimension(setup.r), 0)
    factors = box_factors(setup.r, box.rows(setup))
    sums = multiply_by_factors(list(ambient.betti[:valid_below]), factors, box.step)
    return BettiTable(
        {p: b for p, b in enumerate(sums) if b}, valid_below,
        setup={**{key: value for key, value in setup.to_json_obj().items()
                  if key in ("kind", "e", "f", "r")}, "dim_x": ambient.dim},
        assumptions=(*box.assumptions, "ambient is smooth projective"),
    )


def betti_degeneracy(ambient: AmbientData, e: int, f: int, r: int) -> BettiTable:
    """Betti table of the rank <= r locus of a general map E -> F.

    Valid strictly below the expected dimension: there
    ``b_p = sum over partitions in an (e-r) x r box of b_(p-2|shape|)(X)``.
    """
    return _betti_below_expected(ambient, MorphismSetup("general", e=e, f=f, r=r))


def betti_skew(ambient: AmbientData, e: int, r: int) -> BettiTable:
    """Betti table of the rank <= 2r locus of a skew-symmetric twisted map.

    Valid strictly below the expected dimension: there
    ``b_p = sum over partitions with parts <= r of b_(p-4|shape|)(X)``
    (any number of rows; the shift is four per box).
    """
    return _betti_below_expected(ambient, MorphismSetup("skew", e=e, r=r))


def betti_orthogonal_special(ambient: AmbientData, case: str) -> BettiTable:
    """Betti table of a small intersection locus of two maximal isotropic
    subbundles.

    case "even": generic intersection dimension 0 and no jump to 6; the
    jump-4 locus has the ambient Betti numbers for p <= 3 and one extra
    class at p = 4, valid for p < dim(X) - 9.
    case "odd": generic intersection dimension 1 and no jump to 5; same
    shape for the jump-3 locus, valid for p < dim(X) - 4.
    """
    if case == "even":
        valid_below = min(5, ambient.dim - 9)
        jump, empty_jump, generic = 4, 6, 0
    elif case == "odd":
        valid_below = min(5, ambient.dim - 4)
        jump, empty_jump, generic = 3, 5, 1
    else:
        raise ValueError(f"case must be 'even' or 'odd', got {case!r}")
    valid_below = max(valid_below, 0)
    entries = {p: b for p in range(valid_below) if (b := ambient.h(p) + int(p == 4))}
    return BettiTable(
        entries, valid_below,
        setup={"kind": "orthogonal-special", "case": case, "jump": jump,
               "dim_x": ambient.dim},
        assumptions=(f"generic intersection dimension is {generic}",
                     f"no point has intersection dimension {empty_jump}",
                     "the twisted pairing bundle is ample"),
    )


def skew_to_orthogonal(e: int, r: int) -> tuple[int, int]:
    """Translate a skew rank <= 2r condition on a rank-e bundle into the
    kernel-intersection picture: returns (jump, expected codimension)."""
    return e - 2 * r, MorphismSetup("skew", e=e, r=r).codimension(r)


# ---------------------------------------------------------------------------
# fibrations with cellular fibers


class GrassmannBundle(FrozenRecord):
    """Fiber: d-planes in a rank-e bundle."""

    __slots__ = ("d", "e")

    def __init__(self, d: int, e: int):
        self._set_fields(d, e)
        if not 0 <= self.d <= self.e:
            raise ValueError(f"need 0 <= d <= e, got d={self.d}, e={self.e}")

    @property
    def fiber_dimension(self) -> int:
        return self.d * (self.e - self.d)

    @property
    def factors(self) -> tuple[range, range]:
        return box_factors(self.e - self.d, self.d)

    def describe(self) -> dict:
        return {"fiber": "grassmann", "d": self.d, "e": self.e}


class LagrangianBundle(FrozenRecord):
    """Fiber: maximal isotropic r-planes in a rank-2r symplectic bundle."""

    __slots__ = ("r",)

    def __init__(self, r: int):
        self._set_fields(r)
        if self.r < 0:
            raise ValueError("r must be nonnegative")

    @property
    def fiber_dimension(self) -> int:
        return self.r * (self.r + 1) // 2

    @property
    def factors(self) -> tuple[range, range]:
        return strict_factors(self.r)

    def describe(self) -> dict:
        return {"fiber": "lagrangian", "r": self.r}


Fiber = Union[GrassmannBundle, LagrangianBundle]


def fibration_ambient(ambient: AmbientData, fiber: Fiber) -> AmbientData:
    """Ambient data of the total space of a cellular-fiber bundle.

    The cohomology is free over the base with one shifted copy per cell, so
    ``b_p(total) = sum_q N(q) * b_(p-2q)(base)``, N(q) the fiber's cells of
    dimension q: the padded base series times the fiber's ``factors`` at
    stride 2, in every degree.  Returning AmbientData lets towers compose.
    """
    dim = ambient.dim + fiber.fiber_dimension
    series = list(ambient.betti) + [0] * (2 * fiber.fiber_dimension)
    return AmbientData(dim, multiply_by_factors(series, fiber.factors, 2))


def fibration_betti(ambient: AmbientData, fiber: Fiber) -> BettiTable:
    """Betti table of the total space of a cellular-fiber bundle; exact in
    every degree (valid_below is open-ended)."""
    total = fibration_ambient(ambient, fiber)
    entries = {p: b for p, b in enumerate(total.betti) if b}
    return BettiTable(
        entries, None,
        setup={"kind": "fibration", "dim_x": ambient.dim,
               "dim_total": total.dim, **fiber.describe()},
        assumptions=(),
    )
