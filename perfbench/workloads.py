"""The benchmark's three job lists and the checks applied to every output.

A job is one ``degenloci`` invocation.  Its check raises ``Mismatch`` when
the output disagrees with the oracles in ``oracles.py`` or with the
properties a certified answer must have; a job fails on a wrong exit code,
on output that cannot be parsed, or on a mismatch.

``{work}`` in an argument stands for the round's own scratch directory,
which holds a regular file named ``blocker``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import oracles


class Mismatch(Exception):
    """An output disagrees with its oracle or misses a required property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Job:
    label: str                        # unique within a round
    argv: list[str]                   # arguments of ``degenloci``
    check: Callable[[str], None]      # applied to stdout when the exit code is right
    family: str                       # grassmannian, isotropic, cells, ... (for breakdowns)
    exit_code: int = 0
    cells: int = 0                    # cells the job checks, from the closed form
    cache: Optional[str] = None       # None (no cache), "cold" or "warm"
    same_as: Optional[str] = None     # label whose stdout must be byte-identical
    known_fault: Optional[str] = None  # how a documented fault makes it fail today


# ---------------------------------------------------------------------------
# checks


def _envelope(stdout: str, command: str, params: dict) -> dict:
    env = json.loads(stdout)
    expect(env.get("command") == command, f"command is {env.get('command')!r}")
    for key, value in params.items():
        expect(env["parameters"].get(key) == value,
               f"parameter {key} is {env['parameters'].get(key)!r}")
    return env["result"]


def _ring_poly(family: str, d: int, m: int) -> list[int]:
    return oracles.qbinom(m, d) if family == "grassmannian" \
        else oracles.isotropic_poincare(d, m)


def _check_monomial(mono, d: int, q: int) -> tuple:
    degree = 0
    names = []
    for name, e in mono:
        i = int(name[1:])
        expect(name == f"c{i}" and 1 <= i <= d and e >= 1, f"bad factor {name}^{e}")
        degree += i * e
        names.append(name)
    expect(degree == q, f"basis monomial {mono} not of half-degree {q}")
    expect(len(set(names)) == len(names), f"repeated generator in {mono}")
    return tuple(tuple(f) for f in mono)


def ring_json(family: str, d: int, m: int, max_degree: int):
    """Ranks equal the oracle's Poincare coefficients (so rank 0 above the
    top and in odd degrees), no torsion, and a basis of distinct monomials
    of the right degree whose length equals the rank."""
    poly = _ring_poly(family, d, m)
    key = "n" if family == "grassmannian" else "r"

    def check(stdout: str) -> None:
        result = _envelope(stdout, f"ring {family}",
                           {"d": d, key: m, "max_degree": max_degree})
        rows = result["rows"]
        expect(len(rows) == max_degree + 1, f"{len(rows)} rows")
        for p, row in enumerate(rows):
            expect(row["degree"] == p, f"row {p} has degree {row['degree']}")
            expect(row["torsion"] == [], f"torsion {row['torsion']} in degree {p}")
            q, odd = divmod(p, 2)
            want = 0 if odd else oracles.coeff(poly, q)
            expect(row["rank"] == want, f"rank {row['rank']} != {want} in degree {p}")
            expect(len(row["basis"]) == want, f"basis of {len(row['basis'])} in degree {p}")
            monos = 0 if odd else oracles.count_partitions(q, d)
            expect(row["monomials"] == monos, f"{row['monomials']} monomials in degree {p}")
            seen = {_check_monomial(mono, d, q) for mono in row["basis"]}
            expect(len(seen) == len(row["basis"]), f"repeated basis monomial in degree {p}")
    return check


def ring_ranks(family: str, d: int, m: int, max_degree: int) -> list[list[int]]:
    poly = _ring_poly(family, d, m)
    return [[p, 0 if p % 2 else oracles.coeff(poly, p // 2)]
            for p in range(max_degree + 1)]


def _restriction_rows(d: int, r: int) -> list[tuple[int, int, int, bool]]:
    source, target = oracles.qbinom(2 * r, d), oracles.isotropic_poincare(d, r)
    dim = len(target) - 1
    return [(p, oracles.coeff(source, p), oracles.coeff(target, p),
             oracles.coeff(source, p) == oracles.coeff(target, p))
            for p in range(dim + 1)]


def restriction_json(d: int, r: int):
    """Ranks on both sides equal the oracles; the map is surjective in every
    half-degree and bijective through half-degree 2(r-d)+1."""
    rows_want = _restriction_rows(d, r)
    bound = 2 * (r - d) + 1

    def check(stdout: str) -> None:
        result = _envelope(stdout, "restriction", {"d": d, "r": r, "n": 2 * r})
        expect(result["bijective_bound"] == bound, "bijective bound")
        rows = result["rows"]
        expect(len(rows) == len(rows_want), f"{len(rows)} rows")
        first_bad = None
        for row, (p, src, tgt, bij) in zip(rows, rows_want):
            got = (row["half_degree"], row["rank_source"], row["rank_target"])
            expect(got == (p, src, tgt), f"row {got} != {(p, src, tgt)}")
            expect(row["surjective"] is True, f"not surjective at {p}")
            expect(row["injective"] is bij and row["bijective"] is bij,
                   f"bijectivity wrong at {p}")
            expect(bij or p > bound, f"not bijective at {p} <= {bound}")
            if not bij and first_bad is None:
                first_bad = p
        expect(result["first_non_bijective"] == first_bad, "first_non_bijective")
    return check


def cells_verify_json(n: int, d: int, r: int):
    """Restricted ranks equal the degenerate Chow oracle, ambient ranks the
    q-binomial, and the program's own comparison passes."""
    chow, grass = oracles.degenerate_chow(n, d, r), oracles.qbinom(n, d)

    def check(stdout: str) -> None:
        result = _envelope(stdout, "cells verify", {"n": n, "d": d, "r": r})
        expect(result["passed"] is True and result["histogram_matches"] is True,
               f"program reports failure: {result['first_violation']}")
        expect(result["equality_bound"] == 2 * (n - d - r) + 1, "equality bound")
        cap = max(len(chow) - 1, d * (n - d))
        want = [[p, oracles.coeff(chow, p), oracles.coeff(grass, p)]
                for p in range(cap + 1)]
        expect(result["rows"] == want, "rank rows differ from the oracle")
    return check


def cells_enumerate_json(n: int, d: int, r: int):
    """The cell count equals the closed form, dimensions are distributed as
    the Chow oracle says, and jump sequences are distinct, strictly
    increasing and inside 1..n."""
    chow = oracles.degenerate_chow(n, d, r)
    total = oracles.cell_count(n, d, r)

    def check(stdout: str) -> None:
        result = _envelope(stdout, "cells enumerate", {"n": n, "d": d, "r": r})
        cells = result["cells"]
        expect(result["total"] == total and len(cells) == total,
               f"{result['total']} cells, expected {total}")
        hist = [0] * len(chow)
        previous: list[int] = []
        for cell in cells:
            jumps = cell["jumps"]
            expect(len(jumps) == d and 1 <= jumps[0] and jumps[-1] <= n
                   and all(a < b for a, b in zip(jumps, jumps[1:])),
                   f"bad jump sequence {jumps}")
            expect(jumps > previous, f"jump sequences out of order at {jumps}")
            previous = jumps
            dim = cell["dimension"]
            expect(0 <= dim < len(hist), f"dimension {dim} out of range")
            hist[dim] += 1
        expect(hist == chow, "cell dimensions differ from the Chow oracle")
    return check


def bijection_json(q_max: int, max_part: int):
    pairs = oracles.bijection_pairs(q_max, max_part)

    def check(stdout: str) -> None:
        result = _envelope(stdout, "partitions bijection",
                           {"q_max": q_max, "max_part": max_part})
        expect(result["passed"] is True, f"program reports {result['failure']}")
        expect(result["weights_checked"] == q_max + 1, "weights checked")
        expect(result["pairs_checked"] == pairs,
               f"{result['pairs_checked']} pairs, expected {pairs}")
    return check


def _betti_oracle(variant: str, spec: str, e: int, r: int, f: Optional[int]):
    if variant == "general":
        return oracles.betti_general(spec, e, f, r)
    return oracles.betti_skew(spec, e, r)


def betti_json(variant: str, spec: str, e: int, r: int, f: Optional[int] = None):
    valid_below, pairs = _betti_oracle(variant, spec, e, r, f)
    params = {"ambient": spec, "e": e, "r": r}
    if f is not None:
        params["f"] = f

    def check(stdout: str) -> None:
        result = _envelope(stdout, f"betti {variant}", params)
        expect(result["valid_below"] == valid_below,
               f"valid_below {result['valid_below']} != {valid_below}")
        expect(result["betti"] == pairs, "Betti numbers differ from the oracle")
    return check


# --- csv and pretty forms of the documented commands ----------------------

_DEGREE_RANK = re.compile(r"^\s*degree\s+(\d+)\s+rank\s+(\d+)\s*$")


def _csv(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.splitlines()
    expect(lines and lines[0] == header, f"csv header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def _degree_rank_lines(stdout: str) -> list[list[int]]:
    out = []
    for line in stdout.splitlines():
        match = _DEGREE_RANK.match(line)
        if match:
            out.append([int(match.group(1)), int(match.group(2))])
    return out


def ring_text(fmt: str, family: str, d: int, m: int, max_degree: int):
    ranks = ring_ranks(family, d, m, max_degree)

    def check(stdout: str) -> None:
        if fmt == "csv":
            rows = _csv(stdout, "degree,rank,torsion")
            expect(rows == [[str(p), str(k), ""] for p, k in ranks], "csv rows")
        else:
            expect("torsion" not in stdout, "pretty output reports torsion")
            expect(_degree_rank_lines(stdout) == [x for x in ranks if x[0] % 2 == 0],
                   "pretty ranks")
    return check


def betti_text(fmt: str, pairs: list[list[int]], valid_below: Optional[int]):
    def check(stdout: str) -> None:
        if fmt == "csv":
            rows = _csv(stdout, "degree,rank")
            expect(rows == [[str(p), str(b)] for p, b in pairs], "csv rows")
        else:
            expect(_degree_rank_lines(stdout) == pairs, "pretty ranks")
            tag = ("complete table" if valid_below is None
                   else f"valid for degrees strictly below {valid_below}")
            expect(tag in stdout.splitlines(), f"missing line {tag!r}")
    return check


def restriction_text(fmt: str, d: int, r: int):
    rows = _restriction_rows(d, r)

    def check(stdout: str) -> None:
        if fmt == "csv":
            got = _csv(stdout, "half_degree,rank_source,rank_target,bijective")
            expect(got == [[str(p), str(a), str(b), str(bij)] for p, a, b, bij in rows],
                   "csv rows")
        else:
            pattern = re.compile(r"^\s*half-degree\s+(\d+)\s+(\d+) -> (\d+)\s+\[(.*)\]$")
            got = [m.groups() for m in map(pattern.match, stdout.splitlines()) if m]
            want = [(str(p), str(a), str(b), "bijective" if bij else "surjective only")
                    for p, a, b, bij in rows]
            expect(got == want, "pretty rows")
    return check


def _skew_thresholds(e: int, r: int, dimx: int) -> dict:
    def eps(m: int) -> int:
        return m + 1 if m < 4 else m % 4
    codim = comb(e - 2 * r, 2)
    lefschetz = [m for m in range(4 * r + 4)
                 if dimx - comb(e - 2 * (r - m // 4), 2) >= eps(m)]
    return {"expected_dimension": dimx - codim, "expected_codimension": codim,
            "max_lefschetz": max(lefschetz) if lefschetz else None,
            "epsilon_table": [[m, eps(m)] for m in range(4 * r + 4)]}


def thresholds_check(fmt: str, e: int, r: int, dimx: int):
    """Expected dimension and codimension, the degree allowances and the
    largest Lefschetz degree of a skew setup, from their definitions."""
    want = _skew_thresholds(e, r, dimx)

    def check(stdout: str) -> None:
        if fmt == "json":
            result = _envelope(stdout, "thresholds",
                               {"kind": "skew", "e": e, "r": r, "dimx": dimx})
            for key, value in want.items():
                expect(result[key] == value, f"{key} {result[key]} != {value}")
            return
        if fmt == "csv":
            values = dict(_csv(stdout, "quantity,value"))
        else:
            lines = stdout.splitlines()
            values = dict(line.split(": ", 1) for line in lines
                          if ": " in line and not line.startswith(("note", "allowance")))
            for line in lines:
                if line.startswith("allowance by degree: "):
                    for item in line.split(": ", 1)[1].split(", "):
                        m, v = item.split(":")
                        values[f"epsilon[{m}]"] = v
        for key in ("expected_dimension", "expected_codimension", "max_lefschetz"):
            expect(values.get(key) == str(want[key]), f"{key} {values.get(key)}")
        for m, v in want["epsilon_table"]:
            expect(values.get(f"epsilon[{m}]") == str(v), f"allowance at {m}")
    return check


def self_checks(fmt: str, command: str):
    """``examples run`` and ``verify all`` compare against oracles inside the
    program; here every reported check must pass in every format."""
    def check(stdout: str) -> None:
        if fmt == "json":
            result = json.loads(stdout)["result"]
            reports = result if command == "examples run" else result["checks"]
            expect(command == "examples run" or result["passed"] is True,
                   "battery reports failure")
            key = "match" if command == "examples run" else "passed"
            expect(reports and all(rep[key] is True for rep in reports),
                   "a self-check failed")
        elif fmt == "csv":
            header = ("name,parameters,match,first_mismatch" if command == "examples run"
                      else "check,passed,detail")
            rows = _csv(stdout, header)
            column = 2 if command == "examples run" else 1
            expect(rows and all(row[column] == "True" for row in rows),
                   "a self-check failed")
        else:
            lines = stdout.splitlines()
            if command == "verify all":
                expect(lines[-1] == "all checks passed", "battery reports failure")
                lines = lines[:-1]
            expect(lines and all(line.endswith(": ok") for line in lines),
                   "a self-check failed")
    return check


# ---------------------------------------------------------------------------
# workloads

# (family, d, n or r, top degree + d half-degrees).  LG(5,5) over its window
# (degree 40) takes 16-18 s on a 2-core x86 machine, which would leave one
# round per run; the restriction job builds its table up to the top degree.
RING_WINDOWS = (
    ("grassmannian", 4, 8, 40),
    ("isotropic", 4, 5, 44),
)
RESTRICTIONS = ((5, 5),)


def ring_windows(seed: int) -> list[Job]:
    """Fixed list: every ring over its full certification window."""
    jobs = []
    for family, d, m, top in RING_WINDOWS:
        key = "--n" if family == "grassmannian" else "--r"
        jobs.append(Job(f"ring-{family}-{d}-{m}",
                        ["ring", family, "--d", str(d), key, str(m),
                         "--max-degree", str(top), "--format", "json"],
                        ring_json(family, d, m, top), family))
    for d, r in RESTRICTIONS:
        jobs.append(Job(f"restriction-{d}-{r}",
                        ["restriction", "--d", str(d), "--r", str(r), "--format", "json"],
                        restriction_json(d, r), "restriction"))
    return jobs


# Spaces with n <= 20, r <= 4 and 150,000 <= cells * d <= 250,000 (cells * d
# is roughly what a space costs to enumerate and check), in groups of five or
# six, the groups in order of cost (cells verify plus cells enumerate in one
# process, 2-core x86, Python 3.11).  A draw takes one space from each group,
# so any two draws cost within a few percent of each other and seeds stay
# comparable.  Spaces this large keep interpreter start, the noisiest part of
# a job's time, to a small share of the workload.
CELLS_BAND = (150000, 250000)
CELLS_STRATA = (
    ((19, 14, 0), (17, 9, 1), (17, 8, 1), (18, 12, 0), (19, 13, 1)),
    ((17, 10, 0), (19, 6, 0), (18, 7, 2), (18, 11, 1), (20, 15, 0)),
    ((18, 7, 0), (17, 8, 0), (17, 9, 0), (18, 7, 1), (20, 6, 4)),
    ((19, 12, 2), (18, 8, 3), (18, 9, 3), (18, 8, 2), (18, 10, 2)),
    ((18, 9, 2), (20, 13, 3), (20, 6, 3), (20, 6, 2), (19, 11, 3)),
    ((20, 6, 1), (19, 7, 4), (20, 6, 0), (19, 7, 3), (19, 10, 4), (20, 12, 4)),
)
# in every draw: the space of CELLS_STRATA whose enumeration needs the most
# memory, so the peak memory of a run does not depend on the draw
CELLS_ANCHOR = (20, 6, 0)
BIJECTION_BAND = (20000, 25500)     # pairs walked by one bijection check


def cells_candidates() -> list[tuple[int, int, int]]:
    """Spaces with n <= 20 and r <= 4 whose cells * d lies in CELLS_BAND."""
    low, high = CELLS_BAND
    return [(n, d, r) for n in range(2, 21) for r in range(0, min(4, n // 2) + 1)
            for d in range(1, n - r + 1)
            if low <= oracles.cell_count(n, d, r) * d <= high]


def bijection_candidates() -> list[tuple[int, int]]:
    """q_max in 30..36 and parts <= 8..10 with pairs in BIJECTION_BAND."""
    low, high = BIJECTION_BAND
    return [(q, m) for q in range(30, 37) for m in range(8, 11)
            if low <= oracles.bijection_pairs(q, m) <= high]


def _cells_jobs(n: int, d: int, r: int) -> list[Job]:
    args = ["--n", str(n), "--d", str(d), "--r", str(r), "--format", "json"]
    cells = oracles.cell_count(n, d, r)
    return [Job(f"cells-verify-{n}-{d}-{r}", ["cells", "verify"] + args,
                cells_verify_json(n, d, r), "cells", cells=cells),
            Job(f"cells-enumerate-{n}-{d}-{r}", ["cells", "enumerate"] + args,
                cells_enumerate_json(n, d, r), "cells", cells=cells)]


def _draw_betti(rng: random.Random, variant: str, spec_kind: str) -> Job:
    while True:
        size = rng.randint(8, 40) if spec_kind == "pn" else rng.randint(2, 10)
        spec = f"{spec_kind}:{size}"
        if variant == "general":
            e = rng.randint(2, 5)
            f = rng.randint(e, e + 3)
            r = rng.randint(0, e - 1)
        else:
            e, f = rng.randint(2, 9), None
            r = rng.randint(0, e // 2)
        if _betti_oracle(variant, spec, e, r, f)[0] >= 1:
            break
    argv = ["betti", variant, "--ambient", spec, "--e", str(e)]
    argv += ["--f", str(f)] if f is not None else []
    argv += ["--r", str(r), "--format", "json"]
    return Job(f"betti-{variant}-{spec}-{e}-{f}-{r}", argv,
               betti_json(variant, spec, e, r, f), "betti")


def cells_sweep(seed: int) -> list[Job]:
    """One space drawn from each of CELLS_STRATA, each run as ``cells verify``
    and ``cells enumerate``; ``cells enumerate`` of CELLS_ANCHOR; one
    doubling-bijection check and four Betti tables over drawn ambient
    spaces."""
    rng = random.Random(seed)
    spaces = [rng.choice(group) for group in CELLS_STRATA]
    jobs = [job for space in spaces for job in _cells_jobs(*space)]
    jobs.append(_cells_jobs(*CELLS_ANCHOR)[1])
    q, m = rng.choice(bijection_candidates())
    jobs.append(Job(f"bijection-{q}-{m}",
                    ["partitions", "bijection", "--q-max", str(q), "--max-part", str(m),
                     "--format", "json"],
                    bijection_json(q, m), "partitions"))
    for variant in ("general", "skew"):
        for spec_kind in ("pn", "torus"):
            jobs.append(_draw_betti(rng, variant, spec_kind))
    return jobs


# documented commands: README examples, identical to the acceptance goldens
DOCUMENTED = (
    ["ring", "grassmannian", "--d", "2", "--n", "4", "--max-degree", "8"],
    ["ring", "isotropic", "--d", "2", "--r", "3", "--max-degree", "14"],
    ["thresholds", "--kind", "skew", "--e", "6", "--r", "2", "--dimx", "10"],
    ["betti", "general", "--ambient", "pn:10", "--e", "3", "--f", "3", "--r", "2"],
    ["restriction", "--d", "2", "--r", "3"],
    ["cells", "chow", "--n", "5", "--d", "2", "--r", "2"],
    ["examples", "run"],
    ["verify", "all"],
)
LARGE_OUTPUT = ["cells", "enumerate", "--n", "18", "--d", "9", "--r", "3"]


def _documented_check(argv: list[str], fmt: str) -> tuple[Callable[[str], None], str]:
    """(check, family) of one documented command in one format."""
    head = argv[0]
    opts = {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1)
            if argv[i].startswith("--")}
    if head == "ring":
        family, d, top = argv[1], int(opts["d"]), int(opts["max-degree"])
        m = int(opts["n"] if family == "grassmannian" else opts["r"])
        check = ring_json(family, d, m, top) if fmt == "json" \
            else ring_text(fmt, family, d, m, top)
        return check, family
    if head == "thresholds":
        return thresholds_check(fmt, int(opts["e"]), int(opts["r"]), int(opts["dimx"])), "loci"
    if head == "betti":
        e, f, r = int(opts["e"]), int(opts["f"]), int(opts["r"])
        if fmt == "json":
            return betti_json("general", opts["ambient"], e, r, f), "betti"
        valid_below, pairs = oracles.betti_general(opts["ambient"], e, f, r)
        return betti_text(fmt, pairs, valid_below), "betti"
    if head == "restriction":
        d, r = int(opts["d"]), int(opts["r"])
        return (restriction_json(d, r) if fmt == "json"
                else restriction_text(fmt, d, r)), "restriction"
    if head == "cells":
        n, d, r = int(opts["n"]), int(opts["d"]), int(opts["r"])
        pairs = [[p, c] for p, c in enumerate(oracles.degenerate_chow(n, d, r)) if c]
        if fmt == "json":
            def check(stdout: str) -> None:
                result = _envelope(stdout, "cells chow", {"n": n, "d": d, "r": r})
                expect(result["valid_below"] is None and result["betti"] == pairs,
                       "Chow ranks differ from the oracle")
            return check, "cells"
        return betti_text(fmt, pairs, None), "cells"
    return self_checks(fmt, " ".join(argv[:2])), "worked"


def cli_batch(seed: int) -> list[Job]:
    """Documented commands in every format, each cold then warm against its
    own fresh cache directory; one large-output job; three operations that
    hit documented faults."""
    jobs: list[Job] = []

    def cold_warm(label, argv, check, family, cells=0, warm_fault=None):
        cache = ["--cache-dir", f"{{work}}/cache-{label}"]
        jobs.append(Job(f"{label}-cold", argv + cache, check, family, cells=cells,
                        cache="cold"))
        jobs.append(Job(f"{label}-warm", argv + cache, check, family, cells=cells,
                        cache="warm", same_as=f"{label}-cold", known_fault=warm_fault))

    for fmt in ("json", "csv", "pretty"):
        for i, argv in enumerate(DOCUMENTED):
            check, family = _documented_check(argv, fmt)
            cells = (oracles.cell_count(*(int(argv[k]) for k in (3, 5, 7)))
                     if argv[0] == "cells" else 0)
            # the cache stores results with sorted keys, so a replayed
            # ``examples run`` lists each example's parameters in another
            # order than the cold run did in csv and pretty output
            warm_fault = ("stdout differs" if argv[0] == "examples" and fmt != "json"
                          else None)
            cold_warm(f"doc{i}-{fmt}", argv + ["--format", fmt], check, family, cells,
                      warm_fault)
    n, d, r = (int(LARGE_OUTPUT[k]) for k in (3, 5, 7))
    cold_warm("large", LARGE_OUTPUT + ["--format", "json"],
              cells_enumerate_json(n, d, r), "cells", oracles.cell_count(n, d, r))

    # documented faults: each passes once the program is mended
    weight = 250
    count = oracles.count_partitions(weight, weight)

    def count_check(stdout: str) -> None:
        result = _envelope(stdout, "partitions count", {"weight": weight})
        expect(result["count"] == count, f"count {result['count']} != {count}")

    jobs.append(Job("fault-deep-count",
                    ["partitions", "count", "--weight", str(weight),
                     "--max-part", str(weight), "--format", "json"],
                    count_check, "partitions", known_fault="RecursionError"))
    jobs.append(Job("fault-missing-ambient",
                    ["betti", "general", "--ambient", "file:{work}/missing/ambient.json",
                     "--e", "3", "--f", "3", "--r", "2", "--format", "json"],
                    lambda stdout: None, "betti", exit_code=2,
                    known_fault="FileNotFoundError"))
    ring_argv, ring_check = DOCUMENTED[0] + ["--format", "json"], \
        _documented_check(DOCUMENTED[0], "json")[0]
    jobs.append(Job("fault-cache-below-file",
                    ring_argv + ["--cache-dir", "{work}/blocker/cache"],
                    ring_check, "grassmannian", same_as="doc0-json-cold",
                    known_fault="NotADirectoryError"))
    return jobs


WORKLOADS = {"ring-windows": ring_windows, "cells-sweep": cells_sweep,
             "cli-batch": cli_batch}
