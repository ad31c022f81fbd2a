"""Bundled example checks and their oracles."""

import json
from math import comb

import pytest

from degenloci.worked import (
    DEFAULT_RUNS,
    brill_noether_betti,
    grassmannian_betti,
    odd_chern_symbolic_check,
    pluecker_check,
    product_projective_betti,
    run_examples,
    segre_check,
    symmetric_power_betti,
    symmetric_product_check,
)


# ---------------------------------------------------------------------------
# the oracles themselves, on cases small enough to do by hand


def test_product_projective_betti():
    assert product_projective_betti(1, 1, 4) == [1, 0, 2, 0, 1]
    assert product_projective_betti(0, 3, 6) == [1, 0, 1, 0, 1, 0, 1]
    assert product_projective_betti(2, 2, 8) == [1, 0, 2, 0, 3, 0, 2, 0, 1]


def test_symmetric_power_betti_is_the_curve_for_d_1():
    assert symmetric_power_betti(1, 1, 2) == [1, 2, 1]
    assert symmetric_power_betti(2, 1, 2) == [1, 4, 1]
    assert symmetric_power_betti(3, 1, 2) == [1, 6, 1]


def test_symmetric_power_betti_low_degrees():
    # for p <= d the coefficients stabilize: b_0 = 1, b_1 = 2g,
    # b_2 = C(2g,2) + 1
    for g in (3, 4, 5):
        b = symmetric_power_betti(g, 3, 3)
        assert b[0] == 1
        assert b[1] == 2 * g
        assert b[2] == comb(2 * g, 2) + 1
    with pytest.raises(ValueError):
        symmetric_power_betti(-1, 2, 2)


def test_grassmannian_betti_oracle():
    assert grassmannian_betti(2, 4, 8) == [1, 0, 1, 0, 2, 0, 1, 0, 1]
    assert grassmannian_betti(1, 3, 4) == [1, 0, 1, 0, 1]
    # one series for every degree, read past the top of the box as zeros
    assert grassmannian_betti(2, 5, 15) == [1, 0, 1, 0, 2, 0, 2, 0, 2,
                                            0, 1, 0, 1, 0, 0, 0]
    for d, n in ((3, 2), (-1, 2)):
        with pytest.raises(ValueError):
            grassmannian_betti(d, n, 4)


# ---------------------------------------------------------------------------
# individual checks


def test_segre_small():
    rep = segre_check(2, 2)
    assert rep.match and rep.first_mismatch is None
    # expected dimension 2 means the comparison stops at p = 1
    assert rep.computed == [[0, 1], [1, 0]]


def test_segre_rank_one_maps_from_a_line():
    rep = segre_check(1, 5)
    assert rep.match
    assert rep.computed == [[p, 1 - p % 2] for p in range(len(rep.computed))]


def test_segre_rejects_zero_rank():
    with pytest.raises(ValueError):
        segre_check(0, 3)


def test_pluecker_interior_ranks():
    rep = pluecker_check(5)
    assert rep.match
    assert rep.parameters["p_max"] == 5
    for p, rank in rep.computed:
        assert rank == (p // 4 + 1 if p % 2 == 0 else 0)
    with pytest.raises(ValueError):
        pluecker_check(1)


def test_symmetric_product_5_3_frozen():
    rep = symmetric_product_check(5, 3)
    assert rep.match
    assert rep.computed == [[0, 1], [1, 10], [2, 46]]
    assert rep.oracle == rep.computed


def test_symmetric_product_preconditions():
    with pytest.raises(ValueError):
        symmetric_product_check(4, 3)    # 2d >= g + 2
    with pytest.raises(ValueError):
        symmetric_product_check(0, 1)
    with pytest.raises(ValueError):
        symmetric_product_check(3, 0)


def test_odd_chern_symbolic():
    rep = odd_chern_symbolic_check()
    assert rep.match
    assert rep.computed["odd_components_in_span"] is True
    assert rep.computed["reduced_determinant"] == rep.oracle["reduced_determinant"]


# ---------------------------------------------------------------------------
# the locus of special divisors


def test_brill_noether_frozen():
    table = brill_noether_betti(4, 2, 0)
    assert table.valid_below == 2
    assert dict(table.entries) == {0: 1, 1: 8}
    empty = brill_noether_betti(4, 2, 1)
    assert empty.valid_below == 0
    assert empty.entries == {}


def test_brill_noether_s0_is_the_symmetric_power():
    for g, d in ((4, 2), (5, 3), (6, 2)):
        table = brill_noether_betti(g, d, 0)
        assert table.valid_below == d
        oracle = symmetric_power_betti(g, d, d - 1)
        for p in range(d):
            assert table.rank(p) == oracle[p]


def test_brill_noether_p_max_and_setup():
    table = brill_noether_betti(6, 3, 0, p_max=1)
    assert set(table.entries) <= {0, 1}
    assert table.setup["kind"] == "brill-noether"
    json.dumps(table.to_json_obj())


def test_brill_noether_preconditions():
    with pytest.raises(ValueError):
        brill_noether_betti(4, 4, 0)     # d > g - 1
    with pytest.raises(ValueError):
        brill_noether_betti(4, 0, 0)
    with pytest.raises(ValueError):
        brill_noether_betti(4, 2, -1)
    with pytest.raises(ValueError):
        brill_noether_betti(0, 1, 0)


# ---------------------------------------------------------------------------
# the bundled battery


def test_run_examples_all_pass():
    reports = run_examples()
    assert len(reports) == len(DEFAULT_RUNS)
    assert all(rep.match for rep in reports)
    for rep in reports:
        json.dumps(rep.to_json_obj())


def test_run_examples_filter_and_unknown():
    segre_only = run_examples("segre")
    assert len(segre_only) == 3
    assert all(rep.name == "segre" for rep in segre_only)
    with pytest.raises(ValueError):
        run_examples("mystery")
