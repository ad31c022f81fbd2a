"""Graded quotient rings against combinatorial rank oracles."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import degenloci.rings as rings
from degenloci.chern import ChernPoly, cgen, monomial_degree, series_inverse
from degenloci.errors import VerificationError
from degenloci.partitions import enumerate_box_partitions
from degenloci.rings import (
    GradedTable,
    RingPresentation,
    grassmannian_dimension,
    grassmannian_presentation,
    graded_table,
    isotropic_dimension,
    isotropic_presentation,
    monomials_of_half_degree,
    relation_rows,
    restriction_containment,
    restriction_report,
)


def count_in_box(weight, max_part, max_len):
    """Partitions of `weight` inside a max_len x max_part box, by direct
    recursion on the largest part."""
    if weight == 0:
        return 1
    if max_len == 0 or max_part == 0:
        return 0
    return sum(
        count_in_box(weight - p, p, max_len - 1)
        for p in range(1, min(weight, max_part) + 1)
    )


def count_strict_bounded(weight, max_part):
    """Strict partitions of `weight` with parts at most max_part."""
    if weight == 0:
        return 1
    if max_part == 0:
        return 0
    with_top = count_strict_bounded(weight - max_part, max_part - 1) if weight >= max_part else 0
    return with_top + count_strict_bounded(weight, max_part - 1)


# ---------------------------------------------------------------------------
# dimensions and presentations


def test_dimensions():
    assert grassmannian_dimension(2, 4) == 4
    assert grassmannian_dimension(3, 8) == 15
    assert isotropic_dimension(2, 2) == 3
    assert isotropic_dimension(2, 3) == 7
    assert isotropic_dimension(3, 3) == 6
    assert isotropic_dimension(5, 5) == 15


def test_presentation_shape():
    pres = grassmannian_presentation(2, 5)
    assert pres.num_generators == 2
    assert pres.generator_degrees == (2, 4)
    assert len(pres.relations) == 2
    assert [rel.homogeneous_degree() for rel in pres.relations] == [8, 10]

    iso = isotropic_presentation(2, 3)
    assert iso.num_generators == 2
    assert len(iso.relations) == 2
    assert [rel.homogeneous_degree() for rel in iso.relations] == [8, 12]


def test_presentation_rejects_bad_params():
    with pytest.raises(ValueError):
        grassmannian_presentation(0, 4)
    with pytest.raises(ValueError):
        grassmannian_presentation(5, 4)
    with pytest.raises(ValueError):
        isotropic_presentation(4, 3)
    with pytest.raises(ValueError):
        isotropic_presentation(0, 2)


def test_monomial_order_is_frozen():
    monos = monomials_of_half_degree(3, 3)
    assert monos == [
        (("c3", 1),),
        (("c1", 1), ("c2", 1)),
        (("c1", 3),),
    ]
    assert all(monomial_degree(m) == 6 for m in monos)


def test_graded_table_enumerates_each_monomial_degree_once(monkeypatch):
    calls = []

    def counting(weight, box):
        calls.append((box.max_part, weight))
        return enumerate_box_partitions(weight, box)

    monkeypatch.setattr(rings, "enumerate_box_partitions", counting)
    rings._monomials.cache_clear()
    try:
        graded_table(grassmannian_presentation(3, 6), 18)
        assert sorted(calls) == [(3, q) for q in range(10)]
        # the public list is a copy: clearing it leaves the memo intact
        monomials_of_half_degree(3, 2).clear()
        assert monomials_of_half_degree(3, 2) == [(("c2", 1),), (("c1", 2),)]
        assert len(calls) == 10
    finally:
        rings._monomials.cache_clear()


def test_relation_rows_are_homogeneous():
    pres = grassmannian_presentation(2, 4)
    rows, monos = relation_rows(pres, 4)
    assert len(monos) == 3
    assert all(set(row) <= set(range(3)) for row in rows)


def test_relation_rows_reject_zero_and_inhomogeneous_relations():
    c1, c2 = cgen(1), cgen(2)
    zero = RingPresentation("hand-built", (), 2, (c1 ** 2 - c2, ChernPoly.zero()))
    with pytest.raises(VerificationError, match="relation is zero"):
        relation_rows(zero, 3)
    mixed = RingPresentation("hand-built", (), 2, (c1 + c2,))
    with pytest.raises(ValueError, match="inhomogeneous"):
        relation_rows(mixed, 3)


@pytest.mark.parametrize("build, m", [
    (grassmannian_presentation, 12),
    (isotropic_presentation, 11),
], ids=["G(10,12)", "LG(10,11)"])
def test_relation_rows_place_products_past_nine_generators(build, m):
    # c10 sorts before c2 in a monomial, while exponent vectors index the
    # generators by number: each row is a relation times a monomial, with
    # each term of the product at its column in monos
    pres = build(10, m)
    for q in range(14):
        rows, monos = relation_rows(pres, q)
        column = {m: j for j, m in enumerate(monos)}
        expected = [
            {column[m]: c for m, c in (rel * ChernPoly({mono: 1})).terms.items()}
            for rel in pres.relations if rel.homogeneous_degree() <= 2 * q
            for mono in monomials_of_half_degree(10, q - rel.homogeneous_degree() // 2)
        ]
        assert rows == expected, q
    assert (("c1", 1), ("c10", 1), ("c2", 1)) in monos


# ---------------------------------------------------------------------------
# graded tables: frozen small cases


def test_projective_space_table():
    # 1-planes in C^4: one generator, ranks all 1 up to degree 6
    tbl = graded_table(grassmannian_presentation(1, 4), 6)
    assert tbl.ranks() == [1, 0, 1, 0, 1, 0, 1]
    assert tbl.torsion_free()


def test_grassmannian_2_4_table():
    tbl = graded_table(grassmannian_presentation(2, 4), 8)
    assert [tbl.rank(2 * q) for q in range(5)] == [1, 1, 2, 1, 1]
    assert all(tbl.rank(degree) == 0 for degree in range(1, 9, 2))
    assert tbl.torsion_free()


def test_grassmannian_3_6_table():
    dim = grassmannian_dimension(3, 6)
    tbl = graded_table(grassmannian_presentation(3, 6), 2 * dim)
    assert [tbl.rank(2 * q) for q in range(dim + 1)] == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]
    assert tbl.torsion_free()


def test_lagrangian_2_2_table():
    dim = isotropic_dimension(2, 2)
    tbl = graded_table(isotropic_presentation(2, 2), 2 * dim)
    assert [tbl.rank(2 * q) for q in range(dim + 1)] == [1, 1, 1, 1]
    assert tbl.torsion_free()


def test_isotropic_2_3_table():
    dim = isotropic_dimension(2, 3)
    tbl = graded_table(isotropic_presentation(2, 3), 2 * dim)
    assert [tbl.rank(2 * q) for q in range(dim + 1)] == [1, 1, 2, 2, 2, 2, 1, 1]
    assert tbl.torsion_free()


def test_table_vanishes_above_dimension():
    # the quotient is generated in low degrees, so once it dies it stays dead
    tbl = graded_table(grassmannian_presentation(2, 4), 14)
    assert all(tbl.rank(degree) == 0 for degree in range(9, 15))


def test_piece_without_a_residual_matches_dense_elimination():
    # degree 34 of G(4,8): the unit pivots alone certify the piece, so its
    # Smith form needs no residual
    from degenloci.intlinalg import (
        _sparse_rows, _unit_pivots, elementary_divisors, fraction_free_echelon)

    pres = grassmannian_presentation(4, 8)
    rows, monos = relation_rows(pres, 17)
    _, residual = _unit_pivots(_sparse_rows(rows, len(monos)))
    assert not residual
    dense = [[row.get(j, 0) for j in range(len(monos))] for row in rows]
    assert not [d for d in elementary_divisors(dense) if d > 1]
    # the basis complements the pivots of elimination from the right
    ideal_rank, pivots = fraction_free_echelon([row[::-1] for row in dense])
    row = graded_table(pres, 34).rows[34]
    assert (row.num_monomials, row.rank, row.torsion) == (
        len(monos), len(monos) - ideal_rank, ())
    assert row.rank == count_in_box(17, 4, 4)
    assert row.basis == tuple(m for i, m in enumerate(monos)
                              if len(monos) - 1 - i not in pivots)


# (rank, torsion, free columns) of the two largest G(5,11) pieces, frozen
# from independent computations: rank and torsion from a column sweep of
# unit pivots that left 238 x 27 and 444 x 38 residuals (entries of 49 and
# 62 bits), then a textbook Smith reduction of those; the free columns from
# dense Bareiss elimination on the columns reversed.  Row insertion leaves
# no residual
@pytest.mark.parametrize("q, frozen", [
    (27, (477, [], [0, 2, 13])),
    (30, (673, [], [0])),
])
def test_grassmannian_5_11_largest_pieces_are_frozen(q, frozen):
    from degenloci.intlinalg import _sparse_rows, _unit_pivots, cokernel

    rows, monos = relation_rows(grassmannian_presentation(5, 11), q)
    # no residual, so the free columns are certified
    assert cokernel(rows, len(monos)) == (*frozen, True)
    assert len(monos) - frozen[0] == count_in_box(q, 6, 5)
    assert not _unit_pivots(_sparse_rows(rows, len(monos)))[1]


@pytest.mark.parametrize("pres, top", [
    (grassmannian_presentation(4, 8), 20),
    (isotropic_presentation(4, 5), 22),
], ids=["G(4,8)", "LG(4,5)"])
def test_unit_pivots_leave_no_residual_on_ring_windows(pres, top):
    # every graded piece of G(4,8) to degree 40 and LG(4,5) to degree 44
    from degenloci.intlinalg import _sparse_rows, _unit_pivots

    # in the order of the relations and in the order cokernel inserts them
    for q in range(top + 1):
        rows, monos = relation_rows(pres, q)
        assert not _unit_pivots(_sparse_rows(rows, len(monos)))[1], q
        ordered = sorted(_sparse_rows(rows, len(monos)), key=max)
        assert not _unit_pivots(ordered)[1], q


def test_basis_rows_match_rank():
    tbl = graded_table(grassmannian_presentation(2, 5), 12)
    for row in tbl.rows:
        assert len(row.basis) == row.rank
        assert all(monomial_degree(m) == row.degree for m in row.basis)


def test_basis_is_integral_on_small_windows():
    # the relation rows plus one unit row per basis monomial span the whole
    # lattice, so the basis generates every piece over Z; the complement of
    # the left-greedy pivots fails this, e.g. c1^3 = 2 c1c2 in G(2,4)
    from degenloci.intlinalg import elementary_divisors

    windows = [(grassmannian_presentation(d, n), grassmannian_dimension(d, n))
               for n in range(2, 9) for d in range(1, n)]
    windows += [(isotropic_presentation(d, r), isotropic_dimension(d, r))
                for r in range(1, 6) for d in range(1, r + 1)]
    for pres, top in windows:
        table = graded_table(pres, 2 * top)
        for q in range(top + 1):
            rows, monos = relation_rows(pres, q)
            column = {m: j for j, m in enumerate(monos)}
            rows += [{column[m]: 1} for m in table.rows[2 * q].basis]
            dense = [[row.get(j, 0) for j in range(len(monos))] for row in rows]
            assert elementary_divisors(dense) == [1] * len(monos), (pres, q)


def test_graded_table_refuses_an_uncertified_basis():
    # in degree 4, Z{c1^2, c2} / (2 c1^2 + 3 c2) is free on a generator g
    # with c1^2 = 3g and c2 = -2g, so the standard monomial c2 spans only an
    # index-2 sublattice; lower degrees leave no residual
    c1, c2 = cgen(1), cgen(2)
    pres = RingPresentation("test", (), 2, (2 * c1 ** 2 + 3 * c2,))
    assert graded_table(pres, 2).rows[2].basis == ((("c1", 1),),)
    with pytest.raises(VerificationError, match="degree 4"):
        graded_table(pres, 4)


# ---------------------------------------------------------------------------
# rank oracles and symmetry properties


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_grassmannian_ranks_count_box_partitions(d, codim):
    n = d + codim
    dim = grassmannian_dimension(d, n)
    tbl = graded_table(grassmannian_presentation(d, n), 2 * dim)
    for q in range(dim + 1):
        assert tbl.rank(2 * q) == count_in_box(q, codim, d)
    assert tbl.torsion_free()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4))
def test_lagrangian_ranks_count_strict_partitions(r):
    dim = isotropic_dimension(r, r)
    tbl = graded_table(isotropic_presentation(r, r), 2 * dim)
    for q in range(dim + 1):
        assert tbl.rank(2 * q) == count_strict_bounded(q, r)
    assert sum(tbl.ranks()) == 2 ** r
    assert tbl.torsion_free()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4))
def test_rank_sequence_is_palindromic(d, extra):
    n = d + extra if d + extra >= d else d
    dim = grassmannian_dimension(d, n)
    tbl = graded_table(grassmannian_presentation(d, n), 2 * dim)
    seq = [tbl.rank(2 * q) for q in range(dim + 1)]
    assert seq == seq[::-1]


def complete_intersection_ranks(pres, top):
    """Coefficients of t^0 .. t^top in prod_j (1 - t^h_j) / prod_i (1 - t^i),
    h_j the half-degrees of the relations and i = 1 .. d those of the
    generators; no elimination involved."""
    series = [1] + [0] * top
    for rel in pres.relations:
        h = rel.homogeneous_degree() // 2
        for k in range(top, h - 1, -1):
            series[k] -= series[k - h]
    for i in range(1, pres.num_generators + 1):
        for k in range(i, top + 1):
            series[k] += series[k - i]
    return series


@pytest.mark.parametrize("family, d, m", [
    *(("grassmannian", d, n) for n in range(1, 8) for d in range(1, n + 1)),
    *(("isotropic", d, r) for r in range(1, 6) for d in range(1, r + 1)),
])
def test_ranks_match_the_complete_intersection_series(family, d, m):
    # the relations form a regular sequence, so every window's ranks are
    # the coefficients of its complete-intersection Hilbert series
    build, dimension = {
        "grassmannian": (grassmannian_presentation, grassmannian_dimension),
        "isotropic": (isotropic_presentation, isotropic_dimension),
    }[family]
    pres, top = build(d, m), dimension(d, m) + 1
    tbl = graded_table(pres, 2 * top)
    assert tbl.ranks()[::2] == complete_intersection_ranks(pres, top)
    assert tbl.ranks()[1::2] == [0] * top


def test_table_serialization_roundtrip():
    tbl = graded_table(grassmannian_presentation(2, 4), 4)
    obj = tbl.to_json_obj()
    json.dumps(obj)
    assert obj["label"] == "grassmannian"
    assert obj["params"] == {"d": 2, "n": 4}
    assert [row["rank"] for row in obj["rows"]] == [1, 0, 1, 0, 2]


def test_rank_out_of_range():
    tbl = graded_table(grassmannian_presentation(2, 4), 4)
    with pytest.raises(ValueError):
        tbl.rank(5)
    with pytest.raises(ValueError):
        tbl.rank(-1)


# ---------------------------------------------------------------------------
# restriction to the isotropic subvariety


def test_restriction_containment_small_range():
    for r in range(1, 5):
        for d in range(1, r + 1):
            assert restriction_containment(d, r)


def test_restriction_containment_rejects_bad_shapes():
    for d, r in ((3, 2), (0, 2), (-1, 3), (2, 0)):
        with pytest.raises(ValueError) as exc:
            restriction_containment(d, r)
        assert str(exc.value) == f"need 1 <= d <= r, got d={d}, r={r}"


def test_containment_certificate_rejects_a_perturbed_relation():
    grass, iso = grassmannian_presentation(2, 6), isotropic_presentation(2, 3)
    rings._containment_certificate(grass, iso)
    # h_5, the first relation, plus a class of the same degree
    bent = (grass.relations[0] + cgen(1) ** 5,) + grass.relations[1:]
    with pytest.raises(VerificationError,
                       match="containment identity failed at index 5"):
        rings._containment_certificate(
            RingPresentation(grass.label, grass.params, grass.num_generators, bent),
            iso)


def test_containment_certificate_rejects_an_index_outside_the_relations():
    # h_3 of G(2, 4) needs s_2, below the isotropic relations s_4, s_6
    with pytest.raises(VerificationError, match="h_3 needs inverse component 2 "
                                                "outside the relation range"):
        rings._containment_certificate(grassmannian_presentation(2, 4),
                                       isotropic_presentation(2, 3))


def test_restriction_report_inverts_each_series_once(monkeypatch):
    calls = []

    def counting(c, cap):
        calls.append(cap)
        return series_inverse(c, cap)

    monkeypatch.setattr(rings, "series_inverse", counting)
    restriction_report(2, 6, 3, 2)
    assert len(calls) == 2


def test_restriction_report_2_6_3_frozen():
    report = restriction_report(2, 6, 3)
    assert report.d == 2 and report.r == 3
    assert report.bound == 3
    assert report.first_non_bijective == 4
    observed = [
        (row.half_degree, row.rank_source, row.rank_target, row.bijective)
        for row in report.rows
    ]
    assert observed == [
        (0, 1, 1, True),
        (1, 1, 1, True),
        (2, 2, 2, True),
        (3, 2, 2, True),
        (4, 3, 2, False),
        (5, 2, 2, True),
        (6, 2, 1, False),
        (7, 1, 1, True),
    ]
    assert all(row.surjective for row in report.rows)


def test_restriction_report_line_case_is_bijective_everywhere():
    report = restriction_report(1, 6, 3)
    assert report.first_non_bijective is None
    assert all(row.bijective for row in report.rows)


def test_restriction_report_rejects_bad_shapes():
    with pytest.raises(ValueError):
        restriction_report(2, 5, 3)
    with pytest.raises(ValueError):
        restriction_report(4, 6, 3)
    with pytest.raises(ValueError):
        restriction_report(0, 6, 3)
    with pytest.raises(ValueError, match="up_to_half_degree"):
        restriction_report(2, 6, 3, -1)


def test_restriction_report_json():
    obj = restriction_report(2, 4, 2).to_json_obj()
    json.dumps(obj)
    assert obj["bijective_bound"] == 1
    assert {"half_degree", "rank_source", "rank_target", "surjective",
            "injective", "bijective"} <= set(obj["rows"][0])
