"""Theorem catalog entries, suite runs, and report schemas."""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from nearrings import (
    build_product,
    builtin,
    check,
    default_corpus,
    run_suite,
    theorem_catalog,
    validate_nearring,
)
import nearrings.theorems as theorems
from nearrings.theorems import theorem_description


def test_catalog_is_complete():
    ids = theorem_catalog()
    assert len(ids) == 22
    assert len(set(ids)) == 22
    for tid in ids:
        assert theorem_description(tid)


def test_unknown_id():
    with pytest.raises(ValueError):
        check(builtin("klein4_ring"), "no_such_result")


def test_cap_reports_not_applicable_with_the_limit():
    # lemma1_equiv and prop226 keep their own order limits and name them.
    z65 = build_product((builtin("zn_ring(5)"), builtin("zn_ring(13)")))
    assert check(builtin("zn_ring(8)"), "lemma1_equiv").status == "pass"
    for ring, tid, note in ((builtin("zn_ring(9)"), "lemma1_equiv", "order 9 exceeds brute-force cap 8"),
                            (z65, "prop226", "order 65 exceeds ideal enumeration cap")):
        report = check(ring, tid)
        assert report.status == "not_applicable"
        assert report.hypothesis_note == note


def test_order_272_cells_run():
    # Z16 x Z17: every cell gives a verdict; a cell that does not apply
    # names its hypothesis or its own limit, never a classification limit.
    ring = build_product((builtin("zn_ring(16)"), builtin("zn_ring(17)")))
    reports = {tid: check(ring, tid) for tid in theorem_catalog()}
    assert {r.status for r in reports.values()} <= {"pass", "not_applicable"}
    assert not any("classification" in (r.hypothesis_note or "") for r in reports.values())
    assert reports["thm62"].hypothesis_note == "not a left morphic regular near-ring"
    assert reports["ehrlich_T"].status == "pass"


def test_master_regression_all_builtins():
    """No catalog entry may fail on any builtin."""
    names = ["klein4_ring", "m0_z3", "mat2_f2", "ext_f2_f2",
             "ext_mat2f2_f2sq", "klein4_x_f2"]
    names += [f"zn_ring({n})" for n in range(2, 13)]
    for name in names:
        ring = builtin(name)
        for tid in theorem_catalog():
            report = check(ring, tid)
            assert report.status in ("pass", "not_applicable"), (name, tid, report)


def test_idempotent_characterizations_on_klein4():
    report = check(builtin("klein4_ring"), "lemma_this_thm217")
    assert report.status == "pass"
    assert report.instantiations == 28  # 4 idempotents x 7 clauses


def test_thm62_not_applicable_on_m0_z3():
    report = check(builtin("m0_z3"), "thm62")
    assert report.status == "not_applicable"


def test_ehrlich_on_mat2():
    assert check(builtin("mat2_f2"), "ehrlich_T").status == "pass"


def test_wsw_on_zn4():
    assert check(builtin("zn_ring(4)"), "wsw_morphic").status == "pass"


def test_boolean_entry_on_klein4():
    assert check(builtin("klein4_ring"), "prop_cccxi").status == "pass"


def test_convention_gate_on_ext():
    # results stated for zero-symmetric near-rings do not apply to extensions
    report = check(builtin("ext_f2_f2"), "prop_ff_morphic")
    assert report.status == "not_applicable"
    assert "zero-symmetric" in report.hypothesis_note


def test_example_entries_gate_on_tables():
    assert check(builtin("m0_z3"), "ex20_claim").status == "pass"
    assert check(builtin("klein4_ring"), "ex20_claim").status == "not_applicable"
    assert check(builtin("mat2_f2"), "ex_gggg_claim").status == "pass"
    assert check(builtin("ext_mat2f2_f2sq"), "ex20c_claim").status == "pass"
    assert check(builtin("mat2_f2"), "ex20c_claim").status == "not_applicable"


def test_product_entry():
    assert check(builtin("klein4_x_f2"), "product_morphic").status == "pass"
    assert check(builtin("klein4_ring"), "product_morphic").status == "not_applicable"


def test_report_json_schema_pass_and_na():
    report = check(builtin("zn_ring(6)"), "lemma13")
    doc = report.to_json("zn_ring(6)")
    assert doc["status"] == "pass"
    assert doc["nearring"] == "zn_ring(6)"
    assert doc["theorem"] == "lemma13"
    assert isinstance(doc["instantiations"], int)
    assert "counterexample" not in doc

    na = check(builtin("m0_z3"), "thm62")
    assert na.status == "not_applicable"
    assert na.hypothesis_note


def test_suite_default_corpus_chain():
    report = run_suite(default_corpus())
    assert report.aggregate == "pass"
    chain = report.chain
    assert "klein4_ring" in chain.left_strongly_regular
    assert "klein4_ring" in chain.left_morphic_regular
    assert "klein4_ring" in chain.unit_regular
    assert "mat2_f2" in chain.left_morphic_regular
    assert "mat2_f2" not in chain.left_strongly_regular
    assert "m0_z3" in chain.unit_regular
    assert "m0_z3" not in chain.left_morphic_regular


def test_suite_empty_corpus():
    report = run_suite([])
    assert report.cells == ()
    assert report.aggregate == "pass"


def test_suite_selected_ids():
    report = run_suite([("klein4_ring", builtin("klein4_ring"))], ["prop_cccxi"])
    assert len(report.cells) == 1
    name, cell = report.cells[0]
    assert name == "klein4_ring" and cell.status == "pass"


def test_nonunital_member_yields_not_applicable():
    n = 6
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    zero = [[0] * n for _ in range(n)]
    ring = validate_nearring(add, zero, name="zero_mul")
    report = run_suite([("zero_mul", ring)])
    assert all(cell.status in ("pass", "not_applicable")
               for _, cell in report.cells)


def test_suite_cell_error_is_isolated():
    # an unresolvable id errors its own cell without aborting the run
    report = run_suite([("klein4_ring", builtin("klein4_ring"))],
                       ["lemma10", "no_such_entry"])
    by_id = {cell.theorem_id: cell for _, cell in report.cells}
    assert by_id["lemma10"].status == "pass"
    assert by_id["no_such_entry"].status == "error"
    assert report.aggregate == "fail"


def test_suite_is_deterministic():
    a = run_suite(default_corpus(), ["lemma10", "prop2"])
    b = run_suite(default_corpus(), ["lemma10", "prop2"])
    assert a == b


def test_json_schema():
    report = run_suite(default_corpus(), ["ex20_claim"])
    doc = report.to_json()
    assert set(doc) == {"cells", "aggregate", "inclusion_chain"}
    for cell in doc["cells"]:
        assert set(cell) >= {"nearring", "theorem", "status", "instantiations"}
        assert cell["status"] in ("pass", "fail", "not_applicable", "error")


def reference_lemma10(ring):
    """The exhaustive lemma10 scan: Python loops over (0:a) for every (a, u)."""
    from nearrings import annihilator, orbit, units
    unit_set, inv = units(ring)
    n, mul, add = ring.order, ring.mul, ring.add
    orbits = [orbit(ring, "left", a) for a in range(n)]
    anns = [annihilator(ring, "left", {a}) for a in range(n)]
    count = 0
    for a in range(n):
        for u in sorted(unit_set):
            count += 1
            ui = inv[u]
            if orbits[u] != frozenset(range(n)):
                return ("fail", count, ((a, u), "Nu != N"))
            if anns[a] != anns[mul[a][ui]]:
                return ("fail", count, ((a, u), "(0:a) != (0:a*u^-1)"))
            if frozenset(mul[x][ui] for x in anns[a]) != anns[mul[u][a]]:
                return ("fail", count, ((a, u), "(0:a)u^-1 != (0:ua)"))
            image = [mul[x][u] for x in sorted(anns[a])]
            if len(set(image)) != len(image):
                return ("fail", count, ((a, u), "x -> xu not injective"))
            for x in sorted(anns[a]):
                for y in sorted(anns[a]):
                    if mul[add[x][y]][u] != add[mul[x][u]][mul[y][u]]:
                        return ("fail", count, ((a, u, x), "x -> xu not additive"))
                for r in range(n):
                    if mul[mul[r][x]][u] != mul[r][mul[x][u]]:
                        return ("fail", count, ((a, u, x), "x -> xu not N-linear"))
    return ("pass", count, None)


def swap_in_column(ring, u, x1, x2):
    """A copy of ``ring`` (no validation, empty derived cache) with the
    entries x1*u and x2*u exchanged: column u stays a permutation."""
    mul = [list(row) for row in ring.mul]
    mul[x1][u], mul[x2][u] = mul[x2][u], mul[x1][u]
    return dataclasses.replace(ring, mul=tuple(map(tuple, mul)))


def test_lemma10_map_failure_keeps_witness_and_count():
    # On Z5 with 1*2 and 4*2 exchanged, 2 is still a unit (inverse 3) and
    # x -> 2x is a bijection, but 1*2 + 1*2 != 2*2.
    ring = swap_in_column(builtin("zn_ring(5)"), 2, 1, 4)
    report = check(ring, "lemma10")
    assert (report.status, report.instantiations, report.counterexample) == \
        ("fail", 2, ((0, 2, 1), "x -> xu not additive"))
    assert reference_lemma10(ring) == ("fail", 2, ((0, 2, 1), "x -> xu not additive"))


@given(name=st.sampled_from(("zn_ring(5)", "zn_ring(7)", "zn_ring(9)", "klein4_ring",
                             "mat2_f2", "ext_f2_f2", "klein4_x_f2")),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_lemma10_agrees_with_exhaustive_scan(name, data):
    ring = builtin(name)
    n = ring.order
    for _ in range(data.draw(st.integers(0, 2))):
        ring = swap_in_column(ring, data.draw(st.integers(1, n - 1)),
                              data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1)))
    report = check(ring, "lemma10")
    if report.status == "not_applicable":
        return
    assert (report.status, report.instantiations, report.counterexample) == \
        reference_lemma10(ring)


def test_lemma10_map_clauses_are_skipped_on_validated_rings(monkeypatch):
    # On a near-ring every x -> xu is additive and N-linear, so the per-pair
    # map scan never runs; on a copy where the laws fail, it does.
    calls = []
    real = theorems._lemma10_map_failure

    def counting(ring, a, u):
        calls.append((a, u))
        return real(ring, a, u)

    monkeypatch.setattr(theorems, "_lemma10_map_failure", counting)
    names = ["klein4_ring", "m0_z3", "mat2_f2", "ext_f2_f2", "ext_mat2f2_f2sq", "klein4_x_f2"]
    names += [f"zn_ring({n})" for n in range(2, 13)]
    for name in names:
        assert check(builtin(name), "lemma10").status == "pass", name
    assert calls == []
    check(swap_in_column(builtin("zn_ring(5)"), 2, 1, 4), "lemma10")
    assert calls == [(0, 1), (0, 2)]


LEMMA10_FAMILY = ["klein4_ring", "m0_z3", "mat2_f2", "ext_f2_f2", "ext_mat2f2_f2sq",
                  "klein4_x_f2"] + [f"zn_ring({n})" for n in range(2, 13)]


def test_lemma10_shortcut_matches_the_scan(monkeypatch):
    # The laws prove the lemma once ``one`` is an identity; with the law
    # verdict forced False the cell runs its full scan, map clauses included.
    rings = [builtin(name) for name in LEMMA10_FAMILY]
    rings.append(build_product((builtin("m0_z3"), builtin("zn_ring(2)"))))
    shortcut = [check(ring, "lemma10") for ring in rings]
    assert all(report.status == "pass" for report in shortcut)
    monkeypatch.setattr(theorems, "laws_hold", lambda ring: False)
    assert [check(dataclasses.replace(ring), "lemma10") for ring in rings] == shortcut


def test_lemma10_shortcut_needs_one_to_be_an_identity():
    # Z6 under its laws, but with 2 declared as ``one`` (a replace copy does
    # not check it): the "units" solve a*v = v*a = 2, and N*2 != N.
    ring = dataclasses.replace(builtin("zn_ring(6)"), one=2)
    report = check(ring, "lemma10")
    assert report.status == "fail"
    assert (report.status, report.instantiations, report.counterexample) == \
        reference_lemma10(ring)


def test_convention_gate_reads_one_column():
    # The gate decides zero symmetry from x*0 alone, without the flag scan.
    for name in ("m0_z3", "ext_f2_f2", "zn_ring(6)", "klein4_x_f2"):
        ring = dataclasses.replace(builtin(name))
        note = theorems._convention_gate(ring)
        assert ("flag_scan",) not in ring.derived
        assert (note is None) == ring.flags.zero_symmetric, name
