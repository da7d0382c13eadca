"""Element and structure classification, including the cross-check of the
morphic witness scan against the quotient isomorphism search."""
import dataclasses
import io
import json

import pytest

from nearrings import (
    ElementProfile,
    IdealVerdict,
    MorphicVerdict,
    NonUnitalError,
    StructureProfile,
    all_element_profiles,
    build_M0,
    builtin,
    check,
    default_corpus,
    element_profile,
    emit_table,
    is_left_morphic,
    load_nearring,
    parse_table,
    structure_profile,
    units,
    validate_nearring,
)
from nearrings.catalog import _zn_group
from nearrings.cli import main
from nearrings.nmodules import HomResult, IsoResult
from test_tables import swapped


def klein4():
    return builtin("klein4_ring")


class TestUnits:
    def test_klein4_units(self):
        unit_set, inv = units(klein4())
        assert unit_set == frozenset({2})
        assert inv[2] == 2 and inv[1] is None

    def test_m0_z3_units(self):
        unit_set, inv = units(builtin("m0_z3"))
        assert unit_set == frozenset({5, 7})  # f6 (identity) and f8
        assert inv[7] == 7

    def test_zn_units_are_coprime_residues(self):
        from math import gcd
        ring = builtin("zn_ring(12)")
        unit_set, _ = units(ring)
        assert unit_set == frozenset(a for a in range(12) if gcd(a, 12) == 1)

    def test_nonunital_raises(self):
        # the zero multiplication on Z2 has no unity
        ring = validate_nearring([[0, 1], [1, 0]], [[0, 0], [0, 0]])
        assert ring.one is None
        with pytest.raises(NonUnitalError):
            units(ring)


class TestLeftMorphic:
    def test_klein4_witness_pairing(self):
        ring = klein4()
        assert is_left_morphic(ring, 1).witness == 3  # a paired with c
        assert is_left_morphic(ring, 3).witness == 1
        assert is_left_morphic(ring, 2).witness == 0  # the unity pairs with 0
        assert is_left_morphic(ring, 0).witness == 2

    def test_m0_z3_f5_status(self):
        v = is_left_morphic(builtin("m0_z3"), 4)
        assert not v
        assert v.status == "na_not_ideal"
        assert v.ideal_verdict.witness == (1, 4, 1)

    def test_cross_check_on_small_builtins(self):
        # lemma1_equiv compares the two on every element
        for name in ("klein4_ring", "zn_ring(2)", "zn_ring(4)", "zn_ring(6)",
                     "ext_f2_f2", "klein4_x_f2"):
            assert check(builtin(name), "lemma1_equiv").status == "pass", name

    def test_witness_annihilates_both_ways(self):
        for name in ("klein4_ring", "zn_ring(6)", "mat2_f2"):
            ring = builtin(name)
            for a in range(ring.order):
                v = is_left_morphic(ring, a)
                if v:
                    b = v.witness
                    assert ring.mul[a][b] == 0 and ring.mul[b][a] == 0

    def test_nonunital_raises(self):
        ring = validate_nearring([[0, 1], [1, 0]], [[0, 0], [0, 0]])
        with pytest.raises(NonUnitalError):
            is_left_morphic(ring, 0)


class TestElementProfiles:
    def test_klein4_rows(self):
        profiles = all_element_profiles(klein4())
        b = profiles[2]
        assert b.is_unit and b.is_idempotent and b.is_central
        assert b.is_regular and b.is_unit_regular
        assert b.is_left_strongly_regular and b.is_right_strongly_regular
        a = profiles[1]
        assert not a.is_unit and a.is_idempotent
        assert a.orbit_left_size == 2 and a.ann_left_size == 2

    def test_regular_witness_reevaluates(self):
        for name in ("klein4_ring", "m0_z3", "mat2_f2"):
            ring = builtin(name)
            for p in all_element_profiles(ring):
                if p.is_regular:
                    x = p.regular_witness
                    assert ring.mul[ring.mul[p.index][x]][p.index] == p.index
                if p.is_left_strongly_regular:
                    aa = ring.mul[p.index][p.index]
                    assert ring.mul[p.lsr_witness][aa] == p.index

    def test_unit_witness_is_a_unit(self):
        ring = builtin("m0_z3")
        unit_set, _ = units(ring)
        for p in all_element_profiles(ring):
            assert p.is_unit_regular
            assert p.unit_witness in unit_set

    def test_nilpotency(self):
        mat = builtin("mat2_f2")
        assert element_profile(mat, 0b0100).nilpotency_index == 2  # E12
        assert element_profile(mat, 0b1001).nilpotency_index == 0  # identity
        assert element_profile(mat, 0).nilpotency_index == 1

    def test_m0_z3_idempotents(self):
        profiles = all_element_profiles(builtin("m0_z3"))
        idem = [p.index for p in profiles if p.is_idempotent]
        assert idem == [0, 2, 3, 4, 5, 8]  # f1, f3, f4, f5, f6, f9


class TestStructureProfiles:
    def test_klein4(self):
        sp = structure_profile(klein4())
        assert sp.is_ring and sp.zero_symmetric
        assert sp.reduced and sp.has_ifp and sp.subcommutative
        assert sp.boolean  # every element is idempotent
        assert sp.left_strongly_regular and sp.left_morphic
        assert sp.verdict() == "left strongly regular"

    def test_boolean_witness(self):
        sp = structure_profile(builtin("zn_ring(4)"))
        assert not sp.boolean
        (bad,) = sp.witnesses["boolean"]
        assert (bad * bad) % 4 != bad

    def test_m0_z3(self):
        sp = structure_profile(builtin("m0_z3"))
        assert sp.unit_regular and not sp.left_morphic
        assert not sp.has_ifp
        a, x, b = sp.witnesses["has_ifp"]
        ring = builtin("m0_z3")
        assert ring.mul[a][b] == 0 and ring.mul[ring.mul[a][x]][b] != 0
        assert sp.verdict() == "unit-regular but not left morphic"

    def test_mat2_f2(self):
        sp = structure_profile(builtin("mat2_f2"))
        assert sp.is_ring and sp.regular and sp.left_morphic
        assert not sp.left_strongly_regular
        assert not sp.reduced and sp.left_duo is False
        assert sp.verdict() == "left morphic regular"

    def test_mat2_left_duo_witness(self):
        sp = structure_profile(builtin("mat2_f2"))
        l, x = sp.witnesses["left_duo"]
        ideal = set(sp.witnesses["left_duo_ideal"])
        assert builtin("mat2_f2").mul[l][x] not in ideal

    def test_zn6_not_weakly_divisible(self):
        sp = structure_profile(builtin("zn_ring(6)"))
        assert not sp.weakly_divisible
        a, b = sp.witnesses["weakly_divisible"]
        ring = builtin("zn_ring(6)")
        assert not any(ring.mul[x][a] == b or ring.mul[x][b] == a
                       for x in range(6))

    def test_zn4_morphic_but_not_regular(self):
        sp = structure_profile(builtin("zn_ring(4)"))
        assert sp.left_morphic and not sp.regular
        assert sp.weakly_divisible
        assert sp.verdict() == "not regular"

    def test_near_fields(self):
        assert structure_profile(builtin("zn_ring(5)")).is_near_field
        assert not structure_profile(builtin("zn_ring(6)")).is_near_field

    def test_ext_f2_f2_is_lsr_without_zero_symmetry(self):
        ring = builtin("ext_f2_f2")
        sp = structure_profile(ring)
        assert not sp.zero_symmetric
        assert sp.left_strongly_regular
        assert sp.verdict() == "left strongly regular"

    def test_ext64_off_section_never_morphic(self):
        ring = builtin("ext_mat2f2_f2sq")
        sp = structure_profile(ring)
        assert sp.unit_regular and not sp.left_morphic
        for p in all_element_profiles(ring):
            if p.index % 4 != 0:  # <a, m> with m != 0
                assert not p.morphic

    def test_generalised_near_field(self):
        assert structure_profile(builtin("zn_ring(6)")).generalised_near_field
        assert not structure_profile(builtin("mat2_f2")).generalised_near_field


# ---------------------------------------------------------------------------
# the profiles and corpus counts built from the whole-ring columns, against
# the per-element ``is_left_morphic`` and the profiles they replace


def profile_corpus():
    """The default corpus (m0_z3 has elements whose Na is not an N-ideal),
    M0(Z4), a table without unity and law-broken copies made with
    ``dataclasses.replace``."""
    corpus = list(default_corpus())
    corpus.append(("m0_z4", build_M0(_zn_group(4), name="m0_z4")))
    corpus.append(("zero z2", validate_nearring([[0, 1], [1, 0]], [[0, 0], [0, 0]],
                                                name="zero z2")))
    corpus.append(("z5 swapped", swapped(builtin("zn_ring(5)"), 2, 1, 4)))
    corpus.append(("k4 swapped", swapped(builtin("klein4_ring"), 2, 1, 3)))
    corpus.append(("m0_z3 swapped", swapped(builtin("m0_z3"), 5, 1, 2)))
    return corpus


class TestProfilesFromColumns:
    @pytest.mark.parametrize("ring", [pytest.param(ring, id=name)
                                      for name, ring in profile_corpus()])
    def test_morphic_verdicts_match_is_left_morphic_on_a_fresh_copy(self, ring):
        profiles = all_element_profiles(ring)
        fresh = dataclasses.replace(ring)  # an empty cache: the oracle computes its own
        if ring.one is None:
            assert all(p.morphic is None for p in profiles)
            with pytest.raises(NonUnitalError):
                is_left_morphic(fresh, 0)
            return
        for a, p in enumerate(profiles):
            expected = is_left_morphic(fresh, a)
            assert p.morphic == expected, (ring.name, a)
            if expected.ideal_verdict is not None:
                assert p.morphic.ideal_verdict.witness == expected.ideal_verdict.witness

    def test_corpus_reaches_every_morphic_status(self):
        statuses = {p.morphic.status for _, ring in profile_corpus() if ring.one is not None
                    for p in all_element_profiles(ring)}
        assert statuses == {"morphic", "no_witness", "na_not_ideal"}

    def test_corpus_counts_are_the_profile_sums(self, tmp_path):
        rings = [ring for _, ring in profile_corpus() if "swapped" not in ring.name]
        for i, ring in enumerate(rings):
            (tmp_path / f"{i:02}.json").write_text(emit_table(ring))
        out = io.StringIO()
        assert main(["corpus", str(tmp_path), "--format", "json"], out=out) == 0
        rows = json.loads(out.getvalue())["rows"]
        assert len(rows) == len(rings)
        for row, ring in zip(rows, rings):
            profiles = all_element_profiles(load_nearring(str(tmp_path / row["file"])))
            assert row["units"] == sum(1 for p in profiles if p.is_unit), ring.name
            assert row["idempotents"] == sum(1 for p in profiles if p.is_idempotent)
            assert row["regular"] == sum(1 for p in profiles if p.is_regular)
            assert row["unit_regular"] == sum(1 for p in profiles if p.is_unit_regular)
            assert row["left_morphic"] == sum(1 for p in profiles if p.morphic)


class TestRecords:
    def test_profile_field_order(self):
        # all_element_profiles fills the profile fields by position, and the
        # JSON "structure" keys of classify follow the structure fields.
        assert ElementProfile._fields == (
            "index", "label", "is_unit", "inverse", "is_idempotent", "is_central",
            "nilpotency_index", "is_regular", "regular_witness", "is_unit_regular",
            "unit_witness", "is_left_strongly_regular", "lsr_witness",
            "is_right_strongly_regular", "rsr_witness", "morphic", "orbit_left_size",
            "orbit_right_size", "ann_left_size", "ann_right_size")
        assert StructureProfile._fields == (
            "zero_symmetric", "abelian_add", "is_ring", "is_near_field", "reduced",
            "has_ifp", "subcommutative", "boolean", "weakly_divisible", "left_duo",
            "idempotents_central", "regular", "unit_regular", "left_strongly_regular",
            "right_strongly_regular", "left_morphic", "generalised_near_field", "witnesses")

    def test_truthiness_is_the_verdict_not_the_tuple(self):
        assert not IsoResult(False) and IsoResult(True, (0, 1))
        assert not HomResult(None, "zero_relation", (0,)) and HomResult((0, 1))
        assert not IdealVerdict("not_normal", (1, 2)) and IdealVerdict("N_ideal")
        assert not MorphicVerdict("na_not_ideal", ideal_verdict=IdealVerdict("not_subgroup"))
        assert not MorphicVerdict("no_witness") and MorphicVerdict("morphic", 0)

    def test_raw_tables_compare_by_identity(self):
        text = emit_table(builtin("klein4_ring"))
        first, second = parse_table(text), parse_table(text)
        assert first == first and first != second and len({first, second}) == 2

    def test_structure_witnesses_take_part_in_equality(self):
        sp = structure_profile(builtin("zn_ring(6)"))
        assert sp == sp._replace(witnesses=dict(sp.witnesses))
        assert sp != sp._replace(witnesses={})
        with pytest.raises(TypeError):
            StructureProfile(*sp[:-1]).witnesses["x"] = 1  # the shared default is read-only
