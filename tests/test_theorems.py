"""Theorem catalog entries, suite runs, and report schemas."""
import pytest

from nearrings import (
    build_product,
    builtin,
    check,
    default_corpus,
    run_suite,
    theorem_catalog,
    validate_nearring,
)
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
    ring = build_product((builtin("zn_ring(16)"), builtin("zn_ring(17)")))
    report = check(ring, "thm62")
    assert report.status == "not_applicable"
    assert report.hypothesis_note == "classification limited to order 256"


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
