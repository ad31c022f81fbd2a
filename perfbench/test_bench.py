"""Tests of the benchmark's oracles and job lists.

Run with ``python3 -m pytest perfbench``.  The oracles are checked against
values known by hand, against each other, and against degenloci on small
ranges (when ``src`` is importable); the job lists against their bands and
their seed.
"""

import sys
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def test_qbinom_small_values():
    assert oracles.qbinom(4, 2) == [1, 1, 2, 1, 1]
    assert oracles.qbinom(5, 0) == [1]
    assert oracles.qbinom(3, 4) == [0]
    for n in range(9):
        for k in range(n + 1):
            poly = oracles.qbinom(n, k)
            assert sum(poly) == comb(n, k)
            assert poly == poly[::-1]


def test_isotropic_poincare_known_spaces():
    assert oracles.isotropic_poincare(1, 1) == [1, 1]            # P^1
    assert oracles.isotropic_poincare(1, 3) == [1] * 6           # P^5
    assert oracles.isotropic_poincare(2, 2) == [1, 1, 1, 1]      # LG(2,4)
    for r in range(1, 6):
        for d in range(r + 1):
            poly = oracles.isotropic_poincare(d, r)
            assert sum(poly) == 2 ** d * comb(r, d)
            assert poly == poly[::-1]


def test_degenerate_chow_totals_and_extremes():
    for n in range(1, 13):
        for r in range(n // 2 + 1):
            for d in range(1, n - r + 1):
                assert sum(oracles.degenerate_chow(n, d, r)) \
                    == oracles.cell_count(n, d, r)
    # r = 0: the ordinary Grassmannian; n = 2r: the nondegenerate one
    assert oracles.degenerate_chow(6, 2, 0) == oracles.qbinom(6, 2)
    assert oracles.degenerate_chow(6, 2, 3) == oracles.isotropic_poincare(2, 3)
    assert oracles.cell_count(20, 10, 3) == 76505


def test_partition_counts():
    assert [oracles.count_partitions(w, w) for w in range(8)] \
        == [1, 1, 2, 3, 5, 7, 11, 15]
    assert oracles.count_partitions(250, 250) == 230793554364681
    assert oracles.count_partitions(10, 3) == 14
    assert oracles.bijection_pairs(4, 2) == 1 + 1 + 2 + 2 + 3


def test_betti_oracles_hand_values():
    # rank <= 1 locus of a general 2x2 map over P^4 is a quadric threefold
    # in expected dimension 3; valid below 3: ranks 1, 0, 2
    assert oracles.betti_general("pn:4", 2, 2, 1) == (3, [[0, 1], [2, 2]])
    # skew: e = 4, r = 1 over P^5 has expected codimension 1
    assert oracles.betti_skew("pn:5", 4, 1) == (4, [[0, 1], [2, 1]])
    dim, betti = oracles.ambient_poincare("torus:2")
    assert (dim, betti) == (2, [1, 4, 6, 4, 1])


def _import_program():
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "degenloci").is_dir():
        pytest.skip("degenloci sources not present")
    sys.path.insert(0, str(src))


def test_oracles_agree_with_program_on_small_ranges():
    _import_program()
    from degenloci.cells import cell_histogram
    from degenloci.cli import parse_ambient
    from degenloci.loci import betti_degeneracy, betti_skew
    from degenloci.partitions import count_box_partitions
    from degenloci.rings import (graded_table, grassmannian_presentation,
                                 isotropic_dimension, isotropic_presentation)
    for n in range(1, 7):
        for d in range(1, n + 1):
            table = graded_table(grassmannian_presentation(d, n),
                                 2 * d * (n - d))
            assert [table.rank(2 * q) for q in range(d * (n - d) + 1)] \
                == oracles.qbinom(n, d)
    for r in range(1, 4):
        for d in range(1, r + 1):
            dim = isotropic_dimension(d, r)
            table = graded_table(isotropic_presentation(d, r), 2 * dim)
            assert [table.rank(2 * q) for q in range(dim + 1)] \
                == oracles.isotropic_poincare(d, r)
    for n in range(2, 9):
        for r in range(n // 2 + 1):
            for d in range(1, n - r + 1):
                poly = oracles.degenerate_chow(n, d, r)
                assert cell_histogram(n, d, r) \
                    == {p: c for p, c in enumerate(poly) if c}
    for w in range(30):
        for m in range(8):
            assert count_box_partitions(w, m) == oracles.count_partitions(w, m)
    for spec in ("pn:9", "torus:3"):
        x = parse_ambient(spec)
        for e in range(1, 4):
            for f in range(e, 5):
                for r in range(e + 1):
                    table = betti_degeneracy(x, e, f, r)
                    assert (table.valid_below, table.as_pairs()) \
                        == oracles.betti_general(spec, e, f, r)
        for e in range(7):
            for r in range(e // 2 + 1):
                table = betti_skew(x, e, r)
                assert (table.valid_below, table.as_pairs()) \
                    == oracles.betti_skew(spec, e, r)


def test_cells_strata_partition_the_band():
    import workloads
    drawn = [space for group in workloads.CELLS_STRATA for space in group]
    assert sorted(drawn) == sorted(workloads.cells_candidates())
    assert len(workloads.bijection_candidates()) >= 3


def test_workloads_are_deterministic_in_the_seed():
    import workloads
    for build in workloads.WORKLOADS.values():
        first = [job.argv for job in build(7)]
        assert first == [job.argv for job in build(7)]
        labels = [job.label for job in build(7)]
        assert len(labels) == len(set(labels))
