"""Sparse polynomial algebra over integer Chern-class generators.

A generator is a name like ``c3`` or ``s1``: a letter block followed by a
positive index i, carrying cohomological degree 2i.  Polynomials are sparse
maps from monomials to nonzero arbitrary-precision integer coefficients, so
all identities here are exact.

A monomial has one canonical form, built only by :func:`monomial`: a tuple of
(name, exponent) pairs sorted by name, each generator once, each exponent a
positive int.  The :class:`ChernPoly` constructor puts every key into that
form and sums the coefficients of keys that agree, so products may key on
concatenated monomials and leave the rest to it.  Sums, negatives and
homogeneous parts only recombine keys that are canonical already, so they
skip it (:meth:`ChernPoly._from_canonical`).

Total Chern-class style data is passed around as a *component list*
``c = [c_0, c_1, ..., c_N]`` whose i-th entry is the (polynomial) component
of cohomological degree 2i; indices outside the list are read as zero and
``c_0`` must be 1 where a unit is required.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

Monomial = tuple[tuple[str, int], ...]

_GEN_RE = re.compile(r"([A-Za-z]+)([0-9]+)$")


@lru_cache(maxsize=1024)  # a few names recur in every monomial product
def generator_degree(name: str) -> int:
    """Cohomological degree of a generator: ``c3`` -> 6, ``s1`` -> 2."""
    m = _GEN_RE.match(name)
    if not m or int(m.group(2)) < 1:
        raise ValueError(f"bad generator name {name!r}; want letters + positive index")
    return 2 * int(m.group(2))


def monomial_degree(mon: Monomial) -> int:
    return sum(generator_degree(name) * e for name, e in mon)


def monomial(factors: Iterable[tuple[str, int]]) -> Monomial:
    """Canonical form of a product of generator powers: repeated generators
    merged, zero exponents dropped, sorted by name.  Raises ValueError on a
    bad name or a negative exponent and TypeError on a non-int exponent."""
    acc: dict[str, int] = {}
    for name, e in factors:
        generator_degree(name)
        e = operator.index(e)
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e:
            acc[name] = acc.get(name, 0) + e
    return tuple(sorted(acc.items()))


class ChernPoly:
    """Immutable-by-convention sparse integer polynomial."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[Monomial, int]] = None):
        acc: dict[Monomial, int] = {}
        for mon, coeff in (terms or {}).items():
            mon = monomial(mon)
            acc[mon] = acc.get(mon, 0) + operator.index(coeff)
        self.terms = {mon: coeff for mon, coeff in acc.items() if coeff}

    @classmethod
    def _from_canonical(cls, terms: dict[Monomial, int]) -> "ChernPoly":
        """The polynomial of ``terms``, whose keys are canonical monomials
        and whose coefficients are ints, as those of another polynomial are;
        only the zero coefficients are dropped."""
        poly = object.__new__(cls)
        poly.terms = {mon: coeff for mon, coeff in terms.items() if coeff}
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ChernPoly":
        return ChernPoly()

    @staticmethod
    def const(k: int) -> "ChernPoly":
        return ChernPoly({(): k})

    @staticmethod
    def one() -> "ChernPoly":
        return ChernPoly.const(1)

    @staticmethod
    def gen(name: str, exp: int = 1) -> "ChernPoly":
        return ChernPoly({((name, exp),): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Union["ChernPoly", int]) -> "ChernPoly":
        other = _poly(other)
        acc = dict(self.terms)
        for mon, coeff in other.terms.items():
            acc[mon] = acc.get(mon, 0) + coeff
        return ChernPoly._from_canonical(acc)

    __radd__ = __add__

    def __neg__(self) -> "ChernPoly":
        return ChernPoly._from_canonical({mon: -c for mon, c in self.terms.items()})

    def __sub__(self, other: Union["ChernPoly", int]) -> "ChernPoly":
        return self + (-_poly(other))

    def __rsub__(self, other: Union["ChernPoly", int]) -> "ChernPoly":
        return _poly(other) - self

    def __mul__(self, other: Union["ChernPoly", int]) -> "ChernPoly":
        other = _poly(other)
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon = m1 + m2  # the constructor merges and sorts
                acc[mon] = acc.get(mon, 0) + c1 * c2
        return ChernPoly(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ChernPoly":
        if n < 0:
            raise ValueError("negative power")
        result = ChernPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ChernPoly, int)):
            return NotImplemented
        return self.terms == _poly(other).terms

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mon: Monomial) -> int:
        return self.terms.get(monomial(mon), 0)

    def homogeneous_degree(self) -> Optional[int]:
        """Common cohomological degree of all terms; None for the zero
        polynomial; raises if the polynomial is inhomogeneous."""
        degs = {monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous polynomial, degrees {sorted(degs)}")
        return degs.pop()

    def homogeneous_part(self, degree: int) -> "ChernPoly":
        return ChernPoly._from_canonical({m: c for m, c in self.terms.items()
                                          if monomial_degree(m) == degree})

    def substitute(self, name: str, value: Union["ChernPoly", int]) -> "ChernPoly":
        """Replace one generator by a polynomial (or integer)."""
        value = _poly(value)
        out = ChernPoly.zero()
        for mon, coeff in self.terms.items():
            piece = ChernPoly.const(coeff)
            for gname, e in mon:
                factor = value if gname == name else ChernPoly.gen(gname)
                piece = piece * factor ** e
            out = out + piece
        return out

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in graded-lexicographic monomial order (the canonical order
        used for printing and serialization)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (monomial_degree(kv[0]), kv[0]))

    def to_json_obj(self) -> list[dict]:
        out = []
        for mon, coeff in self.sorted_terms():
            out.append({"monomial": [[name, e] for name, e in mon],
                        "coefficient": str(coeff)})
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mon, coeff in self.sorted_terms():
            body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in mon)
            if not body:
                bits.append(f"{coeff}")
            elif coeff == 1:
                bits.append(body)
            elif coeff == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{coeff}*{body}")
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    __repr__ = __str__


def _poly(x: Union[ChernPoly, int]) -> ChernPoly:
    """A polynomial as itself and an integer as a constant; anything without
    ``__index__`` raises TypeError in the constructor."""
    return x if isinstance(x, ChernPoly) else ChernPoly({(): x})


def cgen(i: int) -> ChernPoly:
    """The standard generator ``c_i`` (cohomological degree 2i)."""
    return ChernPoly.gen(f"c{i}")


Components = Sequence[Union[ChernPoly, int]]


def _component(c: Components, i: int) -> ChernPoly:
    """i-th entry of a component list; 0 outside the list."""
    return _poly(c[i]) if 0 <= i < len(c) else ChernPoly.zero()


def _convolution(a: Components, b: Components, j: int) -> ChernPoly:
    """``sum_i a_i * b_(j-i)``, entries outside the lists read as 0."""
    return sum((_component(a, i) * _component(b, j - i)
                for i in range(max(0, j - len(b) + 1), min(j, len(a) - 1) + 1)),
               ChernPoly.zero())


def series_inverse(c: Components, cap: int) -> list[ChernPoly]:
    """Components ``s_0..s_cap`` of the multiplicative inverse of the series
    with components ``c``, solved degree by degree from the convolution
    ``sum_i c_i * s_(j-i) = 0`` for j >= 1.

    Requires ``c_0 == 1``.  The defining identity is re-checked on the result
    before returning, so a wrong answer cannot escape silently.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if _component(c, 0) != ChernPoly.one():
        raise ValueError("series must start with component 1")
    s: list[ChernPoly] = [ChernPoly.one()]
    for j in range(1, cap + 1):
        s.append(-_convolution(c, s, j))
    for j, conv in enumerate(series_product(c, s, cap)[1:], 1):
        if not conv.is_zero():
            raise ArithmeticError(f"inverse series failed self-check at index {j}")
    return s


def series_product(a: Components, b: Components, cap: int) -> list[ChernPoly]:
    """Components ``0..cap`` of the product of the series with components
    ``a`` and ``b``: ``sum_i a_i * b_(j-i)`` for j = 0..cap."""
    return [_convolution(a, b, j) for j in range(cap + 1)]


def schur_determinant(shape: Sequence[int], c: Components,
                      size: Optional[int] = None) -> ChernPoly:
    """Giambelli-style determinant ``det(c_(shape_i + j - i))`` of order
    ``size``, the Schur polynomial of ``shape`` in the components ``c``.

    ``shape`` is padded with zeros up to ``size`` (default: its own length);
    component index 0 reads as 1 and negative or out-of-range indices as 0.
    """
    parts = list(map(operator.index, shape))
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"shape not weakly decreasing: {shape!r}")
    if any(p < 0 for p in parts):
        raise ValueError(f"negative entry in shape: {shape!r}")
    n = len(parts) if size is None else operator.index(size)
    if n < len([p for p in parts if p]):
        raise ValueError("size smaller than the number of nonzero parts")
    parts = (parts + [0] * n)[:n]
    if n == 0:
        return ChernPoly.one()

    def entry(i: int, j: int) -> ChernPoly:
        idx = parts[i] + j - i
        if idx == 0:
            return ChernPoly.one()
        return _component(c, idx)

    # Laplace expansion along columns, memoized on the surviving row set.
    cache: dict[tuple[int, ...], ChernPoly] = {}

    def minor(rows: tuple[int, ...]) -> ChernPoly:
        if not rows:
            return ChernPoly.one()
        if rows in cache:
            return cache[rows]
        j = n - len(rows)
        acc = ChernPoly.zero()
        for pos, i in enumerate(rows):
            e = entry(i, j)
            if e.is_zero():
                continue
            sub = minor(rows[:pos] + rows[pos + 1:])
            term = e * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        cache[rows] = acc
        return acc

    return minor(tuple(range(n)))


def qtilde(mu: Sequence[int], c: Components) -> ChernPoly:
    """Pfaffian-style Schur Q-polynomial in the components ``c``.

    For a strict shape ``mu``: the empty shape gives 1, a single row (i)
    gives ``c_i``, a two-row shape (i, j) gives
    ``c_i*c_j + 2*sum_{k=1..j} (-1)^k c_(i+k)*c_(j-k)``, and longer shapes
    expand along the first row after padding odd lengths with a zero part.
    """
    parts = [p for p in map(operator.index, mu) if p]
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive: {mu!r}")
    if any(parts[i] <= parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"shape not strictly decreasing: {mu!r}")

    def two_row(i: int, j: int) -> ChernPoly:
        if j == 0:
            return _component(c, i) if i else ChernPoly.one()
        acc = _component(c, i) * _component(c, j)
        for k in range(1, j + 1):
            term = 2 * _component(c, i + k) * _component(c, j - k)
            acc = acc + (-term if k % 2 else term)
        return acc

    def expand(rows: tuple[int, ...]) -> ChernPoly:
        if not rows:
            return ChernPoly.one()
        if len(rows) == 1:
            return two_row(rows[0], 0)
        if len(rows) % 2 == 1:
            rows = rows + (0,)
        if len(rows) == 2:
            return two_row(rows[0], rows[1])
        acc = ChernPoly.zero()
        for j in range(1, len(rows)):
            rest = rows[1:j] + rows[j + 1:]
            term = two_row(rows[0], rows[j]) * expand(rest)
            acc = acc + (term if j % 2 == 1 else -term)
        return acc

    return expand(tuple(parts))
