"""Bounded integer partitions and the part-doubling bijection.

Everything downstream counts partitions inside a box (at most ``max_length``
rows, each part at most ``max_part``) or strict partitions with bounded
largest part.  Enumeration order is lexicographic descending and is part of
the contract: serialized output must be reproducible byte for byte.

Every count series (the counters here, the Betti tables of :mod:`.loci`, the
Chow ranks of :mod:`.cells`, the doubling count identity) is a product of
factors ``1 - x^s`` and their inverses, applied by :func:`multiply_by_factors`.
Each counter call builds its own series up to ``weight`` and caches nothing;
a caller that needs a run of counts builds the series once instead.
"""

from __future__ import annotations

import operator
from itertools import groupby
from typing import Iterator, Optional, Sequence

from .tables import FrozenRecord, Record


def _normalize(parts: Sequence[int]) -> tuple[int, ...]:
    out = tuple(p for p in map(operator.index, parts) if p)
    if min(out, default=0) < 0:
        raise ValueError(f"negative part in {parts!r}")
    if any(map(operator.lt, out, out[1:])):
        raise ValueError(f"parts not weakly decreasing: {parts!r}")
    return out


class Partition:
    """A weakly decreasing tuple of positive integers.  () is the empty one."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int] = ()):
        object.__setattr__(self, "parts", _normalize(parts))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def part(self, i: int) -> int:
        """i-th part, 1-indexed, zero once i exceeds the length."""
        if i < 1:
            raise IndexError("parts are 1-indexed")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [sum(1 for p in self.parts if p > j) for j in range(self.parts[0])]
        return Partition(cols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.parts)})"


class StrictPartition(Partition):
    """A partition with pairwise distinct parts."""

    __slots__ = ()

    def __init__(self, parts: Sequence[int] = ()):
        super().__init__(parts)
        ps = self.parts
        if any(map(operator.eq, ps, ps[1:])):
            raise ValueError(f"parts not strictly decreasing: {parts!r}")


class BoxConstraint(FrozenRecord):
    """Bounds for partition enumeration; max_length=None means unbounded."""

    __slots__ = ("max_part", "max_length")

    def __init__(self, max_part: int, max_length: Optional[int] = None):
        self._set_fields(max_part, max_length)


def _check_bounds(weight: int, max_part: int, max_length: Optional[int]) -> tuple:
    """The weight and bounds read with ``operator.index`` (None is no
    bound); raises ValueError on a negative one."""
    bounds = tuple(v if v is None else operator.index(v)
                   for v in (weight, max_part, max_length))
    for name, value in zip(("weight", "max_part", "max_length"), bounds):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be nonnegative")
    return bounds


def _enumerate(cls, weight: int, max_part: int, max_length: Optional[int],
               strict: bool) -> list:
    """Partitions of ``weight``, parts <= max_part, at most max_length rows
    (any number when None), lex descending; distinct parts when ``strict``.
    Each recursion level places all copies of one part size, most first, so
    the depth is at most ``min(max_part, weight) + 1``, not one per part."""
    weight, max_part, max_length = _check_bounds(weight, max_part, max_length)
    out: list = [] if weight else [_valid_by_construction(cls, [])]

    def rec(remaining: int, cap: int, slots: int, prefix: list[int]) -> None:
        for p in range(min(cap, remaining), 0, -1):
            most = min(slots, 1 if strict else remaining // p)
            prefix += [p] * most
            for c in range(most, 0, -1):
                left = remaining - p * c
                if left == 0:
                    out.append(_valid_by_construction(cls, prefix))
                elif left <= (p - 1) * (slots - c):  # smaller parts can fill it
                    rec(left, p - 1, slots - c, prefix)
                prefix.pop()

    # no partition of ``weight`` has more than ``weight`` rows
    rec(weight, max_part, weight if max_length is None else max_length, [])
    # rec refers to itself through its closure; unbinding it breaks that
    # cycle, so the partitions are freed as soon as the caller drops them
    del rec
    return out


def enumerate_box_partitions(weight: int, box: BoxConstraint) -> list[Partition]:
    """All partitions of ``weight`` fitting in ``box``, lex descending."""
    return _enumerate(Partition, weight, box.max_part, box.max_length, False)


def enumerate_strict_partitions(weight: int, max_part: int) -> list[StrictPartition]:
    """All strict partitions of ``weight`` with parts <= max_part, lex descending."""
    return _enumerate(StrictPartition, weight, max_part, None, True)


def box_factors(max_part: int, max_length: Optional[int] = None) -> tuple[range, range]:
    """Exponents (numerator, denominator) of the partitions with parts <=
    max_part in at most max_length rows: ``prod_i (1 - x^(cols+i)) / (1 - x^i)``,
    i <= rows, rows and cols the box's sides, shorter first; with max_length
    None (any number of rows) the numerator is empty."""
    if max_length is None:
        return range(0), range(1, max_part + 1)
    rows, cols = sorted((max_part, max_length))
    return range(cols + 1, cols + rows + 1), range(1, rows + 1)


def strict_factors(max_part: int) -> tuple[range, range]:
    """Strict partitions, parts <= max_part: prod_i (1 - x^(2i)) / (1 - x^i)."""
    return range(2, 2 * max_part + 1, 2), range(1, max_part + 1)


def multiply_by_factors(series: list[int], factors: tuple[range, range],
                        step: int = 1) -> list[int]:
    """Multiply ``series`` in place, mod x^len(series), by
    ``prod_a (1 - x^(step*a)) / prod_b (1 - x^(step*b))`` for the ascending
    exponents ``factors = (numerator, denominator)``; returns ``series``.
    Truncation is a ring map and each ``1 - x^s`` a unit, so this is exact."""
    top = len(series)
    for a in factors[0]:
        if (shift := step * a) >= top:
            break
        for k in range(top - 1, shift - 1, -1):
            series[k] -= series[k - shift]
    for b in factors[1]:
        if (shift := step * b) >= top:
            break
        for k in range(shift, top):
            series[k] += series[k - shift]
    return series


def count_box_partitions(weight: int, max_part: int,
                         max_length: Optional[int] = None) -> int:
    """Number of partitions of ``weight`` with parts <= max_part and at most
    max_length rows (any number when None): one factor product, no cache.
    Factors past ``weight`` are never applied, so a huge side costs nothing."""
    weight, max_part, max_length = _check_bounds(weight, max_part, max_length)
    return multiply_by_factors([1] + [0] * weight,
                               box_factors(max_part, max_length))[weight]


def count_strict_partitions(weight: int, max_part: int) -> int:
    """Number of strict partitions of ``weight``, parts <= max_part; no cache."""
    weight, max_part, _ = _check_bounds(weight, max_part, None)
    return multiply_by_factors([1] + [0] * weight, strict_factors(max_part))[weight]


def _valid_by_construction(cls, parts: list[int]):
    """A ``cls`` holding ``parts`` without a second ``_normalize`` pass.

    Only :func:`_enumerate`, which draws each part size from a ``range``
    below the last, and :func:`merge_doubled` and :func:`split_doubled`, which
    rearrange the parts of validated partitions, use this: their parts are
    positive ints, in decreasing order, and distinct where ``cls`` is strict.
    """
    obj = object.__new__(cls)
    object.__setattr__(obj, "parts", tuple(parts))
    return obj


def merge_doubled(lam: Partition, mu: StrictPartition) -> Partition:
    """Interleave two copies of every part of ``lam`` with the parts of ``mu``.

    The result has weight 2*|lam| + |mu|.  Together with :func:`split_doubled`
    this realizes the bijection behind the rank-count identity
    ``#{partitions of w, parts <= r} = sum over w = s + 2t of
    #{strict partitions of s} * #{partitions of t}`` (parts <= r throughout).
    """
    merged = [*mu.parts, *lam.parts, *lam.parts]
    merged.sort(reverse=True)
    return _valid_by_construction(Partition, merged)


def split_doubled(nu: Partition) -> tuple[StrictPartition, Partition]:
    """Inverse of :func:`merge_doubled`.

    Parts with odd multiplicity contribute one copy to the strict partition;
    every remaining pair goes to the doubled partition.
    """
    mu: list[int] = []
    lam: list[int] = []
    for p, run in groupby(nu.parts):
        m = len(list(run))
        if m % 2 == 1:
            mu.append(p)
        lam += [p] * (m // 2)
    return (_valid_by_construction(StrictPartition, mu),
            _valid_by_construction(Partition, lam))


class DoublingReport(Record):
    """Outcome of a doubling-bijection verification sweep."""

    __slots__ = ("q_max", "max_part", "weights_checked", "pairs_checked",
                 "passed", "failure")

    def __init__(self, q_max: int, max_part: int, weights_checked: int,
                 pairs_checked: int, passed: bool, failure: Optional[str] = None):
        self._set_fields(q_max, max_part, weights_checked, pairs_checked, passed,
                         failure)


def verify_doubling_bijection(q_max: int, max_part: int) -> DoublingReport:
    """Check the cardinality identity and the merge/split round trip for every
    weight up to ``q_max`` with parts bounded by ``max_part``."""
    if q_max < 0:
        raise ValueError("q_max must be nonnegative")
    pairs = 0
    boxed = multiply_by_factors([1] + [0] * q_max, box_factors(max_part))
    strict = multiply_by_factors([1] + [0] * q_max, strict_factors(max_part))
    # weight w = s + 2t: a strict partition of s and a doubled one of t
    doubled = multiply_by_factors(strict, box_factors(max_part), 2)
    # the strict partitions of each s and the box partitions of each t, once
    mus = [enumerate_strict_partitions(s, max_part) for s in range(q_max + 1)]
    box = BoxConstraint(max_part)
    lams = [enumerate_box_partitions(t, box) for t in range(q_max // 2 + 1)]
    for w, (lhs, rhs) in enumerate(zip(boxed, doubled)):
        if lhs != rhs:
            return DoublingReport(q_max, max_part, w, pairs, False,
                                  f"count mismatch at weight {w}: {lhs} != {rhs}")
        seen: set[tuple[int, ...]] = set()
        for s in range(w % 2, w + 1, 2):
            for mu in mus[s]:
                for lam in lams[(w - s) // 2]:
                    nu = merge_doubled(lam, mu)
                    pairs += 1
                    if nu.weight != w:
                        return DoublingReport(q_max, max_part, w, pairs, False,
                                              f"merge weight off for {mu!r}, {lam!r}")
                    back_mu, back_lam = split_doubled(nu)
                    if back_mu != mu or back_lam != lam:
                        return DoublingReport(q_max, max_part, w, pairs, False,
                                              f"round trip failed for {mu!r}, {lam!r}")
                    if nu.parts in seen:
                        return DoublingReport(q_max, max_part, w, pairs, False,
                                              f"merge not injective at {nu!r}")
                    seen.add(nu.parts)
        if len(seen) != lhs:
            return DoublingReport(q_max, max_part, w, pairs, False,
                                  f"merge not surjective at weight {w}")
    return DoublingReport(q_max, max_part, q_max + 1, pairs, True)
