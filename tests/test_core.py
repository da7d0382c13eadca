"""Validation, construction, and serialization of near-ring tables."""
import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nearrings import (
    AxiomViolation,
    CapExceeded,
    TableFormatError,
    build_M0,
    build_extension,
    build_product,
    builtin,
    emit_table,
    from_document,
    parse_table,
    to_document,
    validate_group,
    validate_nearring,
)
from nearrings.catalog import _KLEIN4_ADD, _KLEIN4_MUL, _f2_module, _zn_group
from nearrings.core import _first_hit, same_tables


def klein4():
    return builtin("klein4_ring")


@given(shape=st.lists(st.integers(0, 5), min_size=1, max_size=3),
       density=st.sampled_from([0.0, 0.02, 0.3, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_first_hit_is_the_first_argwhere_row(shape, density, seed):
    mask = np.random.default_rng(seed).random(shape) < density
    for m in (mask, mask.T):  # the transpose is not C-contiguous
        hits = np.argwhere(m)
        found = _first_hit(m)
        assert found == (tuple(hits[0]) if len(hits) else None)
        assert found is None or all(type(k) is int for k in found)


@pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 0, 4), (1,), (4, 3), (2, 3, 4)])
def test_first_hit_of_an_empty_or_all_false_mask_is_none(shape):
    assert _first_hit(np.zeros(shape, dtype=bool)) is None


class TestValidateGroup:
    def test_trivial_group(self):
        g = validate_group([[0]])
        assert g.order == 1 and g.neg.tolist() == [0]

    def test_klein4(self):
        g = validate_group(_KLEIN4_ADD, labels=("0", "a", "b", "c"))
        assert g.order == 4
        assert g.neg.tolist() == [0, 1, 2, 3]  # every element is its own inverse
        assert g.sub(1, 2) == 3
        assert g.label(3) == "c"

    def test_identity_must_sit_at_zero(self):
        # Z2 with the identity at index 1.
        with pytest.raises(AxiomViolation) as exc:
            validate_group([[1, 0], [0, 1]])
        assert exc.value.law == "add_identity"

    def test_assoc_failure_carries_witness(self):
        add = [row[:] for row in _KLEIN4_ADD]
        add[1][2] = 1  # break a + b
        with pytest.raises(AxiomViolation) as exc:
            validate_group(add)
        law, w = exc.value.law, exc.value.witness
        assert law in ("add_assoc", "add_inverse")
        if law == "add_assoc":
            i, j, k = w
            assert add[add[i][j]][k] != add[i][add[j][k]]

    def test_bad_shape(self):
        with pytest.raises(TableFormatError):
            validate_group([[0, 1], [1, 0], [0, 1]])

    def test_out_of_range_entry(self):
        with pytest.raises(TableFormatError):
            validate_group([[0, 1], [1, 7]])

    def test_duplicate_labels(self):
        with pytest.raises(TableFormatError):
            validate_group([[0, 1], [1, 0]], labels=("x", "x"))

    @pytest.mark.parametrize("add, message", [
        ([[0, 1], [1, True]], "add: entry True in row 1 out of range [0,2)"),
        ([[0, 1], [1, 0.0]], "add: entry 0.0 in row 1 out of range [0,2)"),
        ([[0, -1], [1, 0]], "add: entry -1 in row 0 out of range [0,2)"),
        ([[0, 1], [1, 2 ** 70]], f"add: entry {2 ** 70} in row 1 out of range [0,2)"),
        ([[0, 1], [1]], "add: row 1 has 1 entries, expected 2"),
    ])
    def test_entry_errors_name_the_first_offender(self, add, message):
        with pytest.raises(TableFormatError) as exc:
            validate_group(add)
        assert str(exc.value) == message

    @pytest.mark.parametrize("validate", [
        lambda: validate_nearring(5, [[0]]),
        lambda: validate_nearring(None, None),
        lambda: validate_group(7),
    ], ids=["nearring_int", "nearring_none", "group_int"])
    def test_addition_table_that_is_not_a_list(self, validate):
        with pytest.raises(TableFormatError) as exc:
            validate()
        assert str(exc.value) == "add: not a list of rows"


class TestValidateNearring:
    def test_klein4_flags(self):
        ring = klein4()
        f = ring.flags
        assert f.left_distributive
        assert f.abelian_add and f.zero_symmetric
        assert f.unital and f.commutative_mul
        assert ring.one == 2
        assert ring.is_ring()
        assert ring.flag_witnesses == ()

    def test_zero_annihilates_on_the_left(self):
        for name in ("klein4_ring", "m0_z3", "ext_f2_f2"):
            ring = builtin(name)
            assert all(ring.mul[0][x] == 0 for x in range(ring.order))

    def test_mul_assoc_failure(self):
        mul = [row[:] for row in _KLEIN4_MUL]
        mul[1][1] = 2
        with pytest.raises(AxiomViolation) as exc:
            validate_nearring(_KLEIN4_ADD, mul)
        assert exc.value.law in ("mul_assoc", "right_dist")

    def test_right_dist_failure_witness_reevaluates(self):
        # Constant-one column breaks (x+y)*z = x*z + y*z on Z2.
        add = [[0, 1], [1, 0]]
        mul = [[0, 1], [0, 1]]
        with pytest.raises(AxiomViolation) as exc:
            validate_nearring(add, mul)
        assert exc.value.law == "right_dist"
        i, j, k = exc.value.witness
        assert mul[add[i][j]][k] != add[mul[i][k]][mul[j][k]]

    def test_declared_unity_checked(self):
        with pytest.raises(AxiomViolation) as exc:
            validate_nearring(_KLEIN4_ADD, _KLEIN4_MUL, one=0)
        assert exc.value.law == "unity"

    @pytest.mark.parametrize("one", [1.0, "1", True])
    def test_declared_unity_must_be_an_index(self, one):
        with pytest.raises(TableFormatError) as exc:
            validate_nearring(_KLEIN4_ADD, _KLEIN4_MUL, one=one)
        assert str(exc.value) == f"one: index {one!r} out of range [0,4)"

    def test_declared_unity_may_be_a_numpy_integer(self):
        ring = validate_nearring(_KLEIN4_ADD, _KLEIN4_MUL, one=np.int64(2))
        assert ring.one == 2 and type(ring.one) is int

    def test_unity_found_when_not_declared(self):
        ring = validate_nearring(_KLEIN4_ADD, _KLEIN4_MUL)
        assert ring.one == 2

    def test_flag_witnesses_reevaluate(self):
        ring = builtin("m0_z3")
        wd = dict(ring.flag_witnesses)
        i, j, k = wd["left_distributive"]
        assert ring.mul[i][ring.add[j][k]] != ring.add[ring.mul[i][j]][ring.mul[i][k]]
        assert "zero_symmetric" not in wd  # m0_z3 is zero-symmetric

    def test_nonzero_symmetric_witness(self):
        ring = builtin("ext_f2_f2")
        wd = dict(ring.flag_witnesses)
        (x,) = wd["zero_symmetric"]
        assert ring.mul[x][0] != 0


class TestBuildM0:
    def test_z3_order_and_identity(self):
        ring = build_M0(_zn_group(3))
        assert ring.order == 9
        assert ring.one == 5  # the identity map sits at index 5
        assert all(ring.mul[i][ring.one] == i == ring.mul[ring.one][i]
                   for i in range(9))

    def test_composition_matches_function_composition(self):
        ring = build_M0(_zn_group(3))

        def vec(i):
            return (0, i // 3, i % 3)

        for i in range(9):
            for j in range(9):
                composed = tuple(vec(i)[vec(j)[x]] for x in range(3))
                assert vec(ring.mul[i][j]) == composed

    def test_not_left_distributive(self):
        ring = build_M0(_zn_group(3))
        assert not ring.flags.left_distributive
        assert ring.flags.zero_symmetric

    def test_cap(self):
        with pytest.raises(CapExceeded):
            build_M0(_zn_group(7))  # order 7^6 > 4096


class TestBuildProduct:
    def test_single_factor_is_identity(self):
        ring = build_product([klein4()])
        assert same_tables(ring, klein4())

    def test_componentwise(self):
        k, z = klein4(), builtin("zn_ring(2)")
        ring = build_product([k, z])
        assert ring.order == 8
        # row-major: index = 2 * (klein component) + (z2 component)
        for x in range(8):
            for y in range(8):
                x1, x2 = divmod(x, 2)
                y1, y2 = divmod(y, 2)
                assert ring.add[x][y] == 2 * k.add[x1][y1] + z.add[x2][y2]
                assert ring.mul[x][y] == 2 * k.mul[x1][y1] + z.mul[x2][y2]
        assert ring.one == 2 * k.one + z.one
        assert ring.factors == (k, z)

    def test_annihilators_multiply(self):
        from nearrings import annihilator
        k, z = klein4(), builtin("zn_ring(2)")
        ring = build_product([k, z])
        for x in range(8):
            x1, x2 = divmod(x, 2)
            expect = frozenset(2 * a + b
                               for a in annihilator(k, "left", {x1})
                               for b in annihilator(z, "left", {x2}))
            assert annihilator(ring, "left", {x}) == expect

    def test_cap(self):
        with pytest.raises(CapExceeded):
            build_product([builtin("zn_ring(64)")] * 3)

    def test_large_product_flags_carry_witnesses(self):
        # Order 1088: products of every order take the one validation path,
        # so each false flag comes with a witness that re-evaluates.
        ring = build_product([builtin("ext_f2_f2"), builtin("zn_ring(16)"),
                              builtin("zn_ring(17)")])
        add, mul = ring.add, ring.mul
        f, wd = ring.flags, dict(ring.flag_witnesses)
        assert ring.order == 1088 and f.unital and f.abelian_add
        assert not f.left_distributive and not f.zero_symmetric
        assert not f.commutative_mul
        for name in ("left_distributive", "abelian_add", "zero_symmetric",
                     "commutative_mul"):
            assert (name in wd) == (not getattr(f, name))
        i, j, k = wd["left_distributive"]
        assert mul[i][add[j][k]] != add[mul[i][j]][mul[i][k]]
        (x,) = wd["zero_symmetric"]
        assert mul[x][0] != 0
        i, j = wd["commutative_mul"]
        assert mul[i][j] != mul[j][i]


class TestBuildExtension:
    def test_multiplication_rule(self):
        ring = builtin("ext_f2_f2")
        # <1,1> * <0,0> = <1*0, 1*0 + 1> = <0,1>; index = 2a + m
        assert ring.mul[3][0] == 1
        assert ring.one == 2  # <1,0>
        assert not ring.flags.zero_symmetric
        assert ring.extension is not None

    def test_unit_family_inverts(self):
        # <u, -um> * <u^-1, m> = <1, 0> for every unit u and every m.
        from nearrings.classify import units
        ring = builtin("ext_mat2f2_f2sq")
        base, module = ring.extension
        base_units, base_inv = units(base)
        mneg = module.carrier.neg
        act = module.action
        m_n = module.carrier.order
        for u in sorted(base_units):
            for m in range(m_n):
                left = u * m_n + mneg[act[u][m]]
                right = base_inv[u] * m_n + m
                assert ring.mul[left][right] == ring.one

    def test_rejects_non_ring_base(self):
        with pytest.raises(ValueError):
            build_extension(builtin("m0_z3"), _f2_module())


class TestSerialization:
    def test_roundtrip_all_builtins(self):
        for name in ("klein4_ring", "zn_ring(5)", "m0_z3", "mat2_f2",
                     "ext_f2_f2", "klein4_x_f2"):
            ring = builtin(name)
            back = from_document(parse_table(emit_table(ring)))
            assert np.array_equal(back.add, ring.add)
            assert np.array_equal(back.mul, ring.mul)
            assert back.one == ring.one
            assert back.flags == ring.flags
            assert back.group.labels == ring.group.labels

    def test_emission_is_deterministic(self):
        assert emit_table(klein4()) == emit_table(builtin("klein4_ring"))
        assert emit_table(klein4()).endswith("\n")

    def test_missing_field(self):
        doc = to_document(klein4())
        del doc["mul"]
        with pytest.raises(TableFormatError, match="mul"):
            parse_table(json.dumps(doc))

    def test_wrong_format_tag(self):
        doc = to_document(klein4())
        doc["format"] = "something-else"
        with pytest.raises(TableFormatError, match="format"):
            parse_table(json.dumps(doc))

    def test_truncated_json(self):
        text = emit_table(klein4())
        with pytest.raises(TableFormatError):
            parse_table(text[: len(text) // 2])

    def test_shape_mismatch(self):
        doc = to_document(klein4())
        doc["order"] = 3
        with pytest.raises(TableFormatError):
            parse_table(json.dumps(doc))

    def test_identity_reindexed_to_zero(self):
        # Permute klein4 so the additive identity sits at index 1.
        perm = [1, 0, 2, 3]
        inv = [1, 0, 2, 3]
        add = [[perm[_KLEIN4_ADD[inv[i]][inv[j]]] for j in range(4)] for i in range(4)]
        mul = [[perm[_KLEIN4_MUL[inv[i]][inv[j]]] for j in range(4)] for i in range(4)]
        doc = {"format": "nearring-table/1", "name": "shuffled", "order": 4,
               "add": add, "mul": mul}
        ring = from_document(parse_table(json.dumps(doc)))
        assert all(ring.add[0][j] == j for j in range(4))
        assert ring.flags == klein4().flags
        assert same_tables(ring, klein4())

    def test_bad_one_index(self):
        doc = to_document(klein4())
        doc["one"] = 99
        with pytest.raises(TableFormatError):
            parse_table(json.dumps(doc))


# Each snippet breaks one internal invariant on purpose.  Under -O the check
# must still raise InvariantError, with the message given, instead of
# vanishing like an assert.
INVARIANT_BREAKS = {
    "zero_annihilates": (
        "import nearrings.core as core\n"
        "core._holds = lambda *args: True\n"
        "core.validate_nearring([[0, 1], [1, 0]], [[0, 1], [0, 1]])\n",
        "0*x != 0 in a table that passed right distributivity"),
    # This one stubs the N-ideal stage scans to find nothing, for an orbit
    # the batch test rejects (M0(Z4)).
    "morphic_batch_N_ideal": (
        "import nearrings.nmodules as nmodules\n"
        "from nearrings.catalog import _zn_group\n"
        "nmodules._stage_scans = lambda module, in_l: None\n"
        "nearrings.check(nearrings.build_M0(_zn_group(4)), 'prop2')\n",
        "batch N-ideal test disagrees at element"),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_BREAKS))
def test_invariants_survive_optimize(name):
    snippet, message = INVARIANT_BREAKS[name]
    prog = ("import nearrings\n"
            "assert False, 'assert statements are live'\n"
            "try:\n" + textwrap.indent(snippet, "    ")
            + "except nearrings.InvariantError as exc:\n    print('raised', exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", prog], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(f"raised {message}")


def test_package_has_no_assert_statements():
    # python -O strips asserts; invariants raise InvariantError instead
    package = Path(__file__).resolve().parents[1] / "src" / "nearrings"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
