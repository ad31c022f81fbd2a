"""Degeneracy locus thresholds and Betti calculators."""

import json
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import degenloci.loci as loci
from degenloci.errors import OutsideValidityError
from degenloci.loci import (
    AmbientData,
    GrassmannBundle,
    LagrangianBundle,
    MorphismSetup,
    betti_degeneracy,
    betti_orthogonal_special,
    betti_skew,
    epsilon_general,
    epsilon_skew,
    expected_dimension_general,
    expected_dimension_skew,
    fibration_ambient,
    fibration_betti,
    max_lefschetz_general,
    max_lefschetz_skew,
    skew_to_orthogonal,
    thresholds_report,
    verify_growth_inequalities,
    verify_growth_sweep,
)


def partitions_upto(weight, max_part, max_len):
    """Brute-force partition list; max_len None means unbounded."""
    if weight == 0:
        return [()]
    if max_part == 0 or max_len == 0:
        return []
    out = []
    for p in range(min(weight, max_part), 0, -1):
        for rest in partitions_upto(weight - p, p,
                                    None if max_len is None else max_len - 1):
            out.append((p,) + rest)
    return out


# ---------------------------------------------------------------------------
# ambient data


def test_ambient_constructors():
    pt = AmbientData.point()
    assert (pt.dim, pt.betti) == (0, (1,))
    p2 = AmbientData.projective_space(2)
    assert p2.betti == (1, 0, 1, 0, 1)
    ab = AmbientData.abelian_variety(1)
    assert ab.betti == (1, 2, 1)
    assert AmbientData.abelian_variety(2).betti == tuple(comb(4, p) for p in range(5))


def test_ambient_padding_and_truncation():
    padded = AmbientData(1, (1,))
    assert padded.betti == (1, 0, 0)
    trimmed = AmbientData(0, (1, 0, 0))
    assert trimmed.betti == (1,)
    assert padded.h(2) == 0
    assert padded.h(99) == 0
    assert padded.h(-1) == 0


def test_ambient_rejects_bad_data():
    with pytest.raises(ValueError):
        AmbientData(-1, (1,))
    with pytest.raises(ValueError):
        AmbientData(1, (0, 1))          # b_0 = 0
    with pytest.raises(ValueError):
        AmbientData(1, (1, 0, 0, 5))    # class above twice the dimension
    with pytest.raises(ValueError):
        AmbientData(1, (1, -2))


@pytest.mark.parametrize("dim, betti", [
    (1, (1, 0.0, 1)), (1, (1, 0, 1.9)), (2.7, (1,)), (2.0, (1,)),
    (True, (1,)), (1, (True, 0, 1)), (1, "101"), (1, (1, "0", 1))])
def test_ambient_rejects_non_int_data(dim, betti):
    with pytest.raises(ValueError, match="must be integers"):
        AmbientData(dim, betti)


# ---------------------------------------------------------------------------
# morphism setups


def test_setup_general():
    s = MorphismSetup("general", e=3, f=4, r=2)
    assert s.max_rank == 3
    assert MorphismSetup("general", e=3, f=4, r=2, max_rank=2).max_rank == 2
    for bad in (
        dict(e=3, f=2, r=1),            # e > f
        dict(e=3, f=4, r=4),            # r > e
        dict(e=3, f=4, r=2, max_rank=1),
        dict(e=3, f=4, r=2, max_rank=4),
        dict(f=4, r=1),                 # missing e
    ):
        with pytest.raises(ValueError):
            MorphismSetup("general", **bad)


def test_setup_skew():
    s = MorphismSetup("skew", e=7, r=2)
    assert s.max_rank == 6
    assert MorphismSetup("skew", e=7, r=2, max_rank=4).max_rank == 4
    for bad in (
        dict(e=7, r=4),                 # 2r > e
        dict(e=7, r=2, max_rank=5),     # odd bound
        dict(e=7, r=3, max_rank=4),     # below 2r
        dict(e=7, f=7, r=2),            # f forbidden
    ):
        with pytest.raises(ValueError):
            MorphismSetup("skew", **bad)


def test_setup_orthogonal():
    s = MorphismSetup("orthogonal", r=3, ambient_jump=1)
    assert s.ambient_jump == 1
    assert MorphismSetup("orthogonal", r=2).ambient_jump == 0
    for bad in (
        dict(r=3),                      # r - 0 odd
        dict(r=3, ambient_jump=4),      # jump > r
        dict(e=3, r=3, ambient_jump=1),
    ):
        with pytest.raises(ValueError):
            MorphismSetup("orthogonal", **bad)
    with pytest.raises(ValueError):
        MorphismSetup("mystery", r=1)


def test_setup_rejects_flags_of_other_kinds():
    for kind, kwargs, foreign in (
        ("general", dict(e=3, f=4, r=1, ambient_jump=5), "ambient_jump"),
        ("skew", dict(e=6, r=2, ambient_jump=2), "ambient_jump"),
        ("orthogonal", dict(r=3, ambient_jump=1, max_rank=7), "max_rank"),
    ):
        with pytest.raises(ValueError, match=f"^{kind} setup takes no {foreign}$"):
            MorphismSetup(kind, **kwargs)


# ---------------------------------------------------------------------------
# allowances and Lefschetz thresholds


def test_epsilon_sequences_frozen():
    assert [epsilon_general(m) for m in range(10)] == [1, 2, 0, 1, 0, 1, 0, 1, 0, 1]
    assert [epsilon_skew(m) for m in range(12)] == [1, 2, 3, 4, 0, 1, 2, 3, 0, 1, 2, 3]
    with pytest.raises(ValueError):
        epsilon_general(-1)
    with pytest.raises(ValueError):
        epsilon_skew(-1)


def test_expected_dimensions():
    assert expected_dimension_general(10, 3, 4, 2) == 8
    assert expected_dimension_skew(10, 6, 2) == 9
    assert expected_dimension_skew(10, 6, 0) == -5


def test_max_lefschetz_values():
    assert max_lefschetz_general(10, 3, 4, 2) == 3
    assert max_lefschetz_skew(10, 6, 2) == 7
    assert max_lefschetz_general(0, 1, 1, 0) is None


def test_max_lefschetz_monotone_in_dimension():
    prev = -1
    for dim_x in range(0, 30):
        m = max_lefschetz_general(dim_x, 4, 5, 3)
        if m is not None:
            assert m >= prev
            prev = m
    prev = -1
    for dim_x in range(0, 40):
        m = max_lefschetz_skew(dim_x, 8, 3)
        if m is not None:
            assert m >= prev
            prev = m


def test_thresholds_report_skew_frozen():
    rep = thresholds_report(MorphismSetup("skew", e=6, r=2), 10)
    assert rep.expected_dimension == 9
    assert rep.expected_codimension == 1
    assert rep.max_lefschetz == 7
    assert rep.connectivity_offset == 1
    assert rep.connected_if_dim_above == 1
    assert rep.epsilon_table[:6] == [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [5, 1]]
    obj = rep.to_json_obj()
    json.dumps(obj)
    assert obj["max_lefschetz"] == 7


def test_thresholds_report_general_frozen():
    rep = thresholds_report(MorphismSetup("general", e=3, f=4, r=2), 10)
    assert rep.expected_dimension == 8
    assert rep.expected_codimension == 2
    assert rep.max_lefschetz == 3
    assert rep.connectivity_offset == 2


def test_thresholds_report_orthogonal():
    rep = thresholds_report(MorphismSetup("orthogonal", r=3, ambient_jump=1), 12)
    assert rep.expected_codimension == 3
    assert rep.epsilon_table == []
    assert rep.max_lefschetz is None
    assert rep.connectivity_offset == 3
    assert any("no Lefschetz" in note for note in rep.notes)


def test_thresholds_notes_follow_flags():
    setup = MorphismSetup("general", e=2, f=2, r=1,
                          lower_locus_empty=False, amplitude_assumed=False)
    rep = thresholds_report(setup, 5)
    assert any("lower locus" in n for n in rep.notes)
    assert any("conjectural" in n for n in rep.notes)
    with pytest.raises(ValueError):
        thresholds_report(setup, -1)


# ---------------------------------------------------------------------------
# growth inequalities


def test_growth_general_passes():
    rep = verify_growth_inequalities("general", 4, 2, f=5)
    assert rep.passed and rep.failure is None
    assert rep.checked == {"codimension_gap": 6, "allowance": 101}


def test_growth_skew_passes():
    rep = verify_growth_inequalities("skew", 8, 3)
    assert rep.passed
    assert rep.checked["codimension_gap"] == 10


def test_growth_rejects_bad_shapes():
    with pytest.raises(ValueError):
        verify_growth_inequalities("general", 4, 2)          # missing f
    with pytest.raises(ValueError):
        verify_growth_inequalities("general", 4, 4, f=5)     # r = e
    with pytest.raises(ValueError):
        verify_growth_inequalities("skew", 8, 3, f=9)
    with pytest.raises(ValueError):
        verify_growth_inequalities("skew", 7, 3)             # e < 2r + 2
    with pytest.raises(ValueError):
        verify_growth_inequalities("orthogonal", 4, 2)


def test_growth_sweep_small():
    rep = verify_growth_sweep(6, 50)
    assert rep.passed, rep.failure
    assert set(rep.checked) == {"general_gap", "skew_gap",
                                "general_allowance", "skew_allowance"}
    assert rep.checked["general_allowance"] == 51


# ---------------------------------------------------------------------------
# Betti tables of loci


def test_betti_degeneracy_frozen():
    table = betti_degeneracy(AmbientData.projective_space(10), 3, 3, 2)
    assert table.valid_below == 9
    assert dict(table.entries) == {0: 1, 2: 2, 4: 3, 6: 3, 8: 3}
    assert table.rank(1) == 0
    with pytest.raises(OutsideValidityError):
        table.rank(9)
    assert table.rank_or_none(9) is None


def test_betti_degeneracy_validity_clamps_at_zero():
    table = betti_degeneracy(AmbientData.projective_space(2), 3, 4, 1)
    assert table.valid_below == 0
    assert table.entries == {}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=4))
def test_betti_degeneracy_matches_enumeration(r, extra_e, dim_n, genus):
    e = r + extra_e
    f = e + 1
    ambient = AmbientData.abelian_variety(genus) if dim_n > 6 \
        else AmbientData.projective_space(dim_n)
    table = betti_degeneracy(ambient, e, f, r)
    for p in range(table.valid_below):
        expected = sum(
            ambient.h(p - 2 * q) * len(partitions_upto(q, r, e - r))
            for q in range(p // 2 + 1)
        )
        assert table.rank(p) == expected


def test_ample_section_keeps_ambient_betti():
    ambient = AmbientData.abelian_variety(3)
    table = betti_degeneracy(ambient, 1, 1, 0)
    assert table.valid_below == ambient.dim - 1
    for p in range(table.valid_below):
        assert table.rank(p) == ambient.h(p)


def test_betti_skew_frozen_and_reduction():
    ambient = AmbientData.projective_space(8)
    table = betti_skew(ambient, 4, 1)
    # codim C(2,2) = 1; shifts of 4 per box with parts <= 1
    assert table.valid_below == 7
    assert dict(table.entries) == {0: 1, 2: 1, 4: 2, 6: 2}
    base = betti_degeneracy(ambient, 1, 1, 0)
    zero_rank = betti_skew(ambient, 2, 0)
    assert zero_rank.valid_below == base.valid_below
    assert dict(zero_rank.entries) == dict(base.entries)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8))
def test_betti_skew_matches_enumeration(r, slack, dim_n):
    e = 2 * r + slack
    ambient = AmbientData.projective_space(dim_n)
    table = betti_skew(ambient, e, r)
    for p in range(table.valid_below):
        expected = sum(
            ambient.h(p - 4 * q) * len(partitions_upto(q, r, None))
            for q in range(p // 4 + 1)
        )
        assert table.rank(p) == expected


def test_betti_parity_follows_ambient():
    table = betti_degeneracy(AmbientData.projective_space(12), 4, 5, 2)
    assert all(p % 2 == 0 for p in table.entries)


def test_betti_orthogonal_special():
    even = betti_orthogonal_special(AmbientData.projective_space(20), "even")
    assert even.valid_below == 5
    assert dict(even.entries) == {0: 1, 2: 1, 4: 2}
    odd = betti_orthogonal_special(AmbientData.projective_space(9), "odd")
    assert odd.valid_below == 5
    assert dict(odd.entries) == {0: 1, 2: 1, 4: 2}
    tight = betti_orthogonal_special(AmbientData.projective_space(9), "even")
    assert tight.valid_below == 0
    assert tight.entries == {}
    with pytest.raises(ValueError):
        betti_orthogonal_special(AmbientData.point(), "generic")


def test_skew_to_orthogonal():
    assert skew_to_orthogonal(6, 2) == (2, 1)
    assert skew_to_orthogonal(7, 2) == (3, 3)
    assert skew_to_orthogonal(4, 2) == (0, 0)
    with pytest.raises(ValueError):
        skew_to_orthogonal(3, 2)


# ---------------------------------------------------------------------------
# fibrations


def test_fibration_over_point_is_the_fiber():
    table = fibration_betti(AmbientData.point(), GrassmannBundle(2, 4))
    assert dict(table.entries) == {0: 1, 2: 1, 4: 2, 6: 1, 8: 1}
    assert table.valid_below is None
    lag = fibration_betti(AmbientData.point(), LagrangianBundle(2))
    assert dict(lag.entries) == {0: 1, 2: 1, 4: 1, 6: 1}


def test_fibration_tower_matches_product():
    # a tower of two line bundles over P^1 has the Poincare polynomial of
    # (P^1)^3 regardless of twisting
    base = AmbientData.projective_space(1)
    tower = fibration_ambient(fibration_ambient(base, GrassmannBundle(1, 2)),
                              GrassmannBundle(1, 2))
    assert tower.dim == 3
    expected = [0] * 7
    for a in range(2):
        for b in range(2):
            for c in range(2):
                expected[2 * (a + b + c)] += 1
    assert list(tower.betti) == expected


def test_fibration_betti_total_is_product_of_totals():
    base = AmbientData.abelian_variety(2)
    fiber = LagrangianBundle(3)
    total = fibration_ambient(base, fiber)
    assert total.dim == base.dim + 6
    assert sum(total.betti) == sum(base.betti) * 2 ** 3


class _CountedList(list):
    """A list that records each element it stores."""

    def __init__(self, items):
        super().__init__(items)
        self.updates = 0

    def __setitem__(self, index, value):
        self.updates += 1
        super().__setitem__(index, value)


def _count_updates(monkeypatch):
    """Wrap the series routine as loci calls it; return the list of
    ``(element updates, bound)`` per call, where the bound is (numerator
    plus denominator factors) x (length of the series)."""
    real = loci.multiply_by_factors
    calls = []

    def counting(series, factors, step=1):
        counted = _CountedList(series)
        series[:] = real(counted, factors, step)
        calls.append((counted.updates, sum(map(len, factors)) * len(series)))
        return series

    monkeypatch.setattr(loci, "multiply_by_factors", counting)
    return calls


@pytest.mark.parametrize("base", [AmbientData.point(),
                                  AmbientData.projective_space(3),
                                  AmbientData.abelian_variety(2)],
                         ids=["point", "pn3", "torus2"])
def test_fibration_counts_each_weight_once(monkeypatch, base):
    # one pass over the total space's degrees per factor of the fiber
    # series, however many cells the fiber has
    calls = _count_updates(monkeypatch)
    fiber = LagrangianBundle(6)
    total = fibration_ambient(base, fiber)
    monkeypatch.undo()
    assert total == fibration_ambient(base, fiber)
    assert len(calls) == 1
    updates, bound = calls[0]
    assert 0 < updates <= bound


@pytest.mark.parametrize("ambient", [AmbientData.projective_space(40),
                                     AmbientData.abelian_variety(6),
                                     AmbientData.projective_space(2000)],
                         ids=["pn40", "torus6", "pn2000"])
@pytest.mark.parametrize("betti", [lambda x: betti_degeneracy(x, e=3, f=3, r=2),
                                   lambda x: betti_skew(x, e=6, r=2)],
                         ids=["general", "skew"])
def test_betti_sums_count_each_weight_once(monkeypatch, ambient, betti):
    # one pass over the valid degrees per factor of the box series, instead
    # of one product per pair of partition weight and ambient degree
    calls = _count_updates(monkeypatch)
    table = betti(ambient)
    monkeypatch.undo()
    assert table == betti(ambient)
    assert len(calls) == 1
    updates, bound = calls[0]
    assert 0 < updates <= bound


def test_betti_on_a_large_projective_space_has_closed_form():
    # P^2000 and e = f = 3, r = 2: codimension 1, so p < 1999.  General:
    # weights 0, 1, 2 fit the 1 x 2 box once each, so b_2m = min(m, 2) + 1.
    # Skew with e = 6: parts <= 2 in any number of rows, floor(q/2) + 1 of
    # weight q, so b_2m = sum over q <= m/2 of that, which is
    # floor((floor(m/2) + 2)^2 / 4).
    x = AmbientData.projective_space(2000)
    general, skew = betti_degeneracy(x, 3, 3, 2), betti_skew(x, 6, 2)
    assert general.valid_below == skew.valid_below == 1999
    for p in range(1999):
        m, odd = divmod(p, 2)
        assert general.rank(p) == (0 if odd else min(m, 2) + 1)
        assert skew.rank(p) == (0 if odd else (m // 2 + 2) ** 2 // 4)


def test_fibration_bundle_validation():
    with pytest.raises(ValueError):
        GrassmannBundle(3, 2)
    with pytest.raises(ValueError):
        LagrangianBundle(-1)


# ---------------------------------------------------------------------------
# serialization


def test_betti_table_serialization():
    table = betti_degeneracy(AmbientData.projective_space(6), 2, 2, 1)
    obj = table.to_json_obj()
    json.dumps(obj)
    assert obj["valid_below"] == table.valid_below
    assert obj["betti"] == table.as_pairs()
    assert "rank < r locus is empty" in obj["assumptions"]


def test_records_have_value_semantics():
    from degenloci.cells import OrbitSignature
    from degenloci.partitions import BoxConstraint
    from degenloci.rings import RestrictionRow, RingPresentation

    # equal fields make equal values with equal hashes; another class or a
    # changed field does not
    frozen = [
        (lambda: AmbientData(2, (1, 0, 1, 0, 1)), AmbientData(2, (1, 0, 2, 0, 1)),
         "betti"),
        (lambda: MorphismSetup("general", e=2, f=3, r=1),
         MorphismSetup("general", e=2, f=3, r=0), "r"),
        (lambda: BoxConstraint(3, 2), BoxConstraint(3), "max_length"),
        (lambda: OrbitSignature((1, 3)), OrbitSignature((1, 4)), "jumps"),
        (lambda: RingPresentation("g", (("d", 1),), 1, ()),
         RingPresentation("g", (("d", 2),), 1, ()), "params"),
        (lambda: GrassmannBundle(1, 3), GrassmannBundle(2, 3), "d"),
        (lambda: LagrangianBundle(2), LagrangianBundle(3), "r"),
    ]
    for make, other, name in frozen:
        a, b = make(), make()
        assert a == b and not a != b and a is not b
        assert hash(a) == hash(b)
        assert a != other and other != a
        assert len({a, b, other}) == 2
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a == b
    assert GrassmannBundle(1, 3) != LagrangianBundle(1)
    assert AmbientData(0, (1,)) != (0, (1,))

    # keyword construction and defaults
    assert BoxConstraint(max_part=4) == BoxConstraint(4, None)
    assert BoxConstraint(4).max_length is None
    setup = MorphismSetup(kind="skew", e=5, r=1)
    assert (setup.f, setup.lower_locus_empty, setup.amplitude_assumed) \
        == (None, True, True)
    assert MorphismSetup("orthogonal", r=2) == MorphismSetup("orthogonal", r=2,
                                                             ambient_jump=0)
    assert OrbitSignature(jumps=[2, 5]).jumps == (2, 5)
    assert repr(BoxConstraint(3)) == "BoxConstraint(max_part=3, max_length=None)"

    # the normalisations made on construction
    assert AmbientData(2, (1,)).betti == (1, 0, 0, 0, 0)
    assert AmbientData(1, [1, 0, 1, 0, 0]).betti == (1, 0, 1)
    assert MorphismSetup("general", e=3, f=4, r=1).max_rank == 3
    assert MorphismSetup("skew", e=5, r=1).max_rank == 4
    assert MorphismSetup("orthogonal", r=2).ambient_jump == 0
    assert [RestrictionRow(0, 3, 3, True, ok).bijective for ok in (True, False)] \
        == [True, False]
    row = RestrictionRow(half_degree=1, rank_source=2, rank_target=1,
                         surjective=True, injective=False)
    assert row == RestrictionRow(1, 2, 1, True, False)
    assert row.to_json_obj() == {"half_degree": 1, "rank_source": 2, "rank_target": 1,
                                 "surjective": True, "injective": False,
                                 "bijective": False}
