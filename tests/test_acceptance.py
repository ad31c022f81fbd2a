"""Acceptance gate: the package's headline guarantees, each reported with
one pass/fail line.

Run with ``pytest tests/test_acceptance.py``; the per-criterion lines are
written straight to the terminal so they survive output capture.
"""

import json
from contextlib import contextmanager

from degenloci.cells import cell_histogram, verify_restriction_bounds_degenerate
from degenloci.chern import ChernPoly, cgen, qtilde
from degenloci.cli import main
from degenloci.intlinalg import fraction_free_echelon, torsion_invariants
from degenloci.loci import epsilon_general, epsilon_skew, verify_growth_sweep
from degenloci.partitions import (
    count_box_partitions,
    enumerate_strict_partitions,
    verify_doubling_bijection,
)
from degenloci.rings import (
    graded_table,
    grassmannian_dimension,
    grassmannian_presentation,
    isotropic_dimension,
    isotropic_presentation,
    monomials_of_half_degree,
    relation_rows,
    restriction_report,
)
from degenloci.worked import pluecker_check, segre_check, symmetric_product_check


@contextmanager
def criterion(num, text, cap):
    try:
        yield
    except BaseException:
        with cap.disabled():
            print(f"criterion {num:2d} FAIL  {text}", flush=True)
        raise
    with cap.disabled():
        print(f"criterion {num:2d} pass  {text}", flush=True)


def test_criterion_01_grassmannian_hilbert_functions(capsys):
    with criterion(1, "Grassmannian ring ranks are box-partition counts, "
                      "torsion-free, for d <= n <= 10 in every degree", capsys):
        for n in range(1, 11):
            for d in range(1, n + 1):
                dim = grassmannian_dimension(d, n)
                # generators sit in half-degrees 1..d, so once d consecutive
                # half-degrees above the top vanish, everything above them
                # does too: the window [dim+1, dim+d] certifies every degree
                table = graded_table(grassmannian_presentation(d, n),
                                     2 * (dim + d))
                for q in range(dim + 1):
                    assert table.rank(2 * q) == count_box_partitions(q, n - d, d)
                for q in range(dim + 1, dim + d + 1):
                    assert table.rank(2 * q) == 0
                assert all(table.rank(deg) == 0
                           for deg in range(1, 2 * (dim + d), 2))
                assert table.torsion_free()


def test_criterion_02_isotropic_hilbert_functions(capsys):
    with criterion(2, "isotropic ring ranks match the nondegenerate cell "
                      "histogram for d <= r <= 6; total 2^r when d = r", capsys):
        for r in range(1, 7):
            for d in range(1, r + 1):
                dim = isotropic_dimension(d, r)
                table = graded_table(isotropic_presentation(d, r),
                                     2 * (dim + d))
                hist = cell_histogram(2 * r, d, r)
                for q in range(dim + 1):
                    assert table.rank(2 * q) == hist.get(dim - q, 0)
                for q in range(dim + 1, dim + d + 1):
                    assert table.rank(2 * q) == 0
                assert table.torsion_free()
                if d == r:
                    assert sum(table.ranks()) == 2 ** r


def test_criterion_03_restriction_bounds(capsys):
    with criterion(3, "restriction G(d,2r) -> LG(d,2r) is surjective "
                      "everywhere and bijective through half-degree "
                      "2(r-d)+1, for d <= r <= 5", capsys):
        for r in range(1, 6):
            for d in range(1, r + 1):
                report = restriction_report(d, 2 * r, r)
                assert all(row.surjective for row in report.rows)
                bound = 2 * (r - d) + 1
                assert report.bound == bound
                for row in report.rows:
                    if row.half_degree <= bound:
                        assert row.bijective


def test_criterion_04_degenerate_additive_bounds(capsys):
    with criterion(4, "degenerate cell histograms match the rank "
                      "decomposition and the ambient bounds for n <= 8", capsys):
        cases = 0
        for n in range(2, 9):
            for r in range(0, (n - 1) // 2 + 1):   # keeps the kernel k >= 1
                k = n - 2 * r
                for d in range(1, k + r + 1):
                    report = verify_restriction_bounds_degenerate(n, d, r)
                    assert report.passed, report.first_violation
                    assert report.histogram_matches
                    assert report.bound == 2 * (n - d - r) + 1
                    cases += 1
        assert cases == 89


def test_criterion_05_doubling_bijection(capsys):
    with criterion(5, "doubling bijection is exhaustive for weights <= 30 "
                      "and parts <= 8", capsys):
        for max_part in range(1, 9):
            report = verify_doubling_bijection(30, max_part)
            assert report.passed, report.failure
            assert report.weights_checked == 31


def test_criterion_06_growth_inequalities(capsys):
    with criterion(6, "codimension growth and allowance inequalities hold "
                      "for e, f <= 12 and t <= 100", capsys):
        report = verify_growth_sweep(max_rank=12, t_max=100)
        assert report.passed, report.failure
        assert report.checked["general_allowance"] == 101
        assert report.checked["skew_allowance"] == 101
        assert report.checked["general_gap"] > 0
        assert report.checked["skew_gap"] > 0


def test_criterion_07_symmetric_powers(capsys):
    with criterion(7, "symmetric powers of curves reproduce the "
                      "generating-function Betti numbers for g in 3..6, "
                      "all p below d", capsys):
        for g in (3, 4, 5, 6):
            for d in range(1, (g + 3) // 2):
                report = symmetric_product_check(g, d)
                assert report.match, report.first_mismatch
                assert report.parameters["p_max"] == d - 1


def test_criterion_08_segre_and_pluecker(capsys):
    with criterion(8, "Segre loci match products for ranks <= 5; rank-2 "
                      "skew loci match G(2,m) for m <= 7 with the "
                      "degree-forced exponent count", capsys):
        for dim_v in range(1, 6):
            for dim_w in range(1, 6):
                report = segre_check(dim_v, dim_w)
                assert report.match, report.first_mismatch
        for m in range(2, 8):
            report = pluecker_check(m)
            assert report.match, report.first_mismatch


def test_criterion_09_qtilde_basis(capsys):
    with criterion(9, "images of the Q-tilde polynomials form a Z-basis of "
                      "the maximal isotropic ring in every degree, r <= 5", capsys):
        for r in range(1, 6):
            pres = isotropic_presentation(r, r)
            components = [ChernPoly.one()] + [cgen(i) for i in range(1, r + 1)]
            top = r * (r + 1) // 2
            for q in range(top + 1):
                monos = monomials_of_half_degree(r, q)
                columns = {m: i for i, m in enumerate(monos)}
                rel_rows = [[row.get(j, 0) for j in range(len(monos))]
                            for row in relation_rows(pres, q)[0]]
                rel_rank, _ = fraction_free_echelon(rel_rows)
                assert torsion_invariants(rel_rows) == []
                shapes = enumerate_strict_partitions(q, r)
                # as many polynomials as the free rank of the graded piece
                assert len(shapes) == len(monos) - rel_rank
                stacked = [list(row) for row in rel_rows]
                for mu in shapes:
                    poly = qtilde(tuple(mu), components)
                    row = [0] * len(monos)
                    for mon, coeff in poly.terms.items():
                        row[columns[mon]] = coeff
                    stacked.append(row)
                # relations plus the images span the full lattice with no
                # torsion, so the images generate the quotient; a generating
                # set of size equal to the free rank is a basis
                rank, _ = fraction_free_echelon(stacked)
                assert rank == len(monos)
                assert torsion_invariants(stacked) == []


def test_criterion_10_allowance_values(capsys):
    with criterion(10, "Lefschetz allowances match their closed forms "
                       "pointwise for m <= 100", capsys):
        for m in range(101):
            general = 1 if m == 0 else 2 if m == 1 else m % 2
            skew = m + 1 if m < 4 else m % 4
            assert epsilon_general(m) == general
            assert epsilon_skew(m) == skew


GOLDEN_COMMANDS = (
    ("ring", "grassmannian", "--d", "2", "--n", "4", "--max-degree", "8"),
    ("ring", "isotropic", "--d", "2", "--r", "3", "--max-degree", "14"),
    ("thresholds", "--kind", "skew", "--e", "6", "--r", "2", "--dimx", "10"),
    ("betti", "general", "--ambient", "pn:10", "--e", "3", "--f", "3", "--r", "2"),
    ("restriction", "--d", "2", "--r", "3"),
    ("cells", "chow", "--n", "5", "--d", "2", "--r", "2"),
    ("examples", "run"),
    ("verify", "all"),
)


def test_criterion_11_cli_golden_runs(capsys):
    with criterion(11, "documented CLI commands print byte-identical JSON "
                       "across consecutive runs and all self-checks pass", capsys):
        for argv in GOLDEN_COMMANDS:
            full = list(argv) + ["--format", "json"]
            code1 = main(full)
            out1 = capsys.readouterr().out
            code2 = main(full)
            out2 = capsys.readouterr().out
            assert code1 == 0 and code2 == 0
            assert out1 == out2
            envelope = json.loads(out1)
            two_word = argv[0] in ("ring", "betti", "cells", "examples", "verify")
            assert envelope["command"] == " ".join(argv[:2] if two_word else argv[:1])
            assert set(envelope) == {"format_version", "command",
                                     "parameters", "result"}
