"""Closed-form answers for the benchmark's jobs, computed apart from degenloci.

Polynomials are lists of integer coefficients, index = exponent.  Nothing
here imports the package under test: the q-binomial uses the Gaussian
recurrence, the isotropic Poincare polynomial uses the Weyl-group product,
and partition counts use an iterative table, so an error in the program's
partition recursion, presentations or elimination cannot repeat here.
"""

from __future__ import annotations

from math import comb


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of an exact polynomial division; raises on a remainder."""
    num = list(num)
    if den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    quotient = [0] * (len(num) - len(den) + 1)
    # divide from the low end: den has constant term 1
    for i in range(len(quotient)):
        c = num[i]
        quotient[i] = c
        if c:
            for j, y in enumerate(den):
                num[i + j] -= c * y
    if any(num):
        raise ArithmeticError("division left a remainder")
    return quotient


def coeff(poly: list[int], i: int) -> int:
    return poly[i] if 0 <= i < len(poly) else 0


def qbinom(n: int, k: int) -> list[int]:
    """Gaussian binomial [n choose k]_q by [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    if k < 0 or k > n:
        return [0]
    row = [[1]]  # row[j] = [m choose j] for the current m
    for m in range(1, n + 1):
        new = []
        for j in range(min(m, k) + 1):
            left = row[j - 1] if j >= 1 else [0]
            right = [0] * j + row[j] if j < len(row) else [0]
            new.append(poly_add(left, right))
        row = new
    return row[k]


def isotropic_poincare(d: int, r: int) -> list[int]:
    """Poincare polynomial in q = t^2 of isotropic d-planes in a symplectic
    2r-space: prod_{i<=r}(1-q^2i) / (prod_{i<=d}(1-q^i) prod_{i<=r-d}(1-q^2i))."""
    if not 0 <= d <= r:
        raise ValueError(f"need 0 <= d <= r, got d={d}, r={r}")
    num = [1]
    for i in range(r - d + 1, r + 1):
        num = poly_mul(num, [1] + [0] * (2 * i - 1) + [-1])
    den = [1]
    for i in range(1, d + 1):
        den = poly_mul(den, [1] + [0] * (i - 1) + [-1])
    return poly_divexact(num, den)


def degenerate_chow(n: int, d: int, r: int) -> list[int]:
    """Cells by dimension of isotropic d-planes for a skew form of rank 2r on
    n-space: sum_c q^((k-c)(d-c)) [k choose c]_q P_IG(d-c, 2r)(q), k = n-2r."""
    k = n - 2 * r
    total = [0]
    for c in range(max(0, d - r), min(d, k) + 1):
        term = poly_mul(qbinom(k, c), isotropic_poincare(d - c, r))
        total = poly_add(total, [0] * ((k - c) * (d - c)) + term)
    return total


def cell_count(n: int, d: int, r: int) -> int:
    """sum_c C(k,c) 2^(d-c) C(r, d-c): the number of cells."""
    k = n - 2 * r
    return sum(comb(k, c) * 2 ** (d - c) * comb(r, d - c)
               for c in range(max(0, d - r), min(d, k) + 1))


def _partition_table(weight: int, max_part: int) -> list[int]:
    """Partitions of each w <= weight with parts <= max_part, iteratively."""
    table = [1] + [0] * weight
    for part in range(1, min(max_part, weight) + 1):
        for w in range(part, weight + 1):
            table[w] += table[w - part]
    return table


def count_partitions(weight: int, max_part: int) -> int:
    """Partitions of weight with parts <= max_part."""
    return _partition_table(weight, max_part)[weight] if weight >= 0 else 0


def bijection_pairs(q_max: int, max_part: int) -> int:
    """Pairs the doubling-bijection check walks: one per partition of each
    weight w <= q_max with parts <= max_part."""
    return sum(_partition_table(q_max, max_part))


def ambient_poincare(spec: str) -> tuple[int, list[int]]:
    """(dimension, Betti numbers by degree) of pn:N or torus:G."""
    kind, _, value = spec.partition(":")
    size = int(value)
    if kind == "pn":
        return size, [1 - p % 2 for p in range(2 * size + 1)]
    if kind == "torus":
        return size, [comb(2 * size, p) for p in range(2 * size + 1)]
    raise ValueError(f"no oracle for ambient {spec!r}")


def _substitute(poly: list[int], step: int) -> list[int]:
    """poly(t^step)."""
    out = [0] * (step * (len(poly) - 1) + 1)
    for i, x in enumerate(poly):
        out[step * i] = x
    return out


def _pairs_below(series: list[int], valid_below: int) -> list[list[int]]:
    return [[p, series[p]] for p in range(min(valid_below, len(series)))
            if series[p]]


def betti_general(spec: str, e: int, f: int, r: int) -> tuple[int, list[list[int]]]:
    """(valid_below, [[degree, rank], ...]) of the rank <= r locus of a general
    map E -> F: P_X(t) [e choose r]_(t^2) below dim X - (e-r)(f-r)."""
    dim, betti = ambient_poincare(spec)
    valid_below = max(dim - (e - r) * (f - r), 0)
    return valid_below, _pairs_below(
        poly_mul(betti, _substitute(qbinom(e, r), 2)), valid_below)


def betti_skew(spec: str, e: int, r: int) -> tuple[int, list[list[int]]]:
    """Skew rank <= 2r locus: P_X(t) prod_(i<=r) 1/(1-t^4i) below
    dim X - C(e-2r, 2)."""
    dim, betti = ambient_poincare(spec)
    valid_below = max(dim - comb(e - 2 * r, 2), 0)
    series = [1] + [0] * max(valid_below - 1, 0)
    for i in range(1, r + 1):
        step = 4 * i
        for p in range(step, len(series)):
            series[p] += series[p - step]
    return valid_below, _pairs_below(poly_mul(betti, series), valid_below)
