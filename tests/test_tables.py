"""One table representation: every Cayley table is a read-only
``core.TABLE_DTYPE`` (int16) array.

Checks that every way of making a group, near-ring or module stores its
tables in that form, that the table checker still names the first bad entry
for every kind of input, that no numpy scalar leaks into a witness or a
report, and that the numpy constructions and the ideal test equal the
loops they replace.
"""
import dataclasses
import io
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearrings import (
    AxiomViolation,
    CapExceeded,
    FiniteGroup,
    NModule,
    TableFormatError,
    annihilator,
    build_extension,
    build_M0,
    build_product,
    builtin,
    default_corpus,
    emit_table,
    enumerate_left_ideals,
    from_document,
    hom_from_cyclic_generator,
    is_ideal,
    is_N_ideal,
    load_nearring,
    modules_isomorphic,
    orbit,
    parse_table,
    quotient_module,
    regular_representation,
    run_suite,
    structure_profile,
    units,
    validate_group,
    validate_module,
    validate_nearring,
)
from nearrings.catalog import (_KLEIN4_ADD, _KLEIN4_MUL, _f2_module, _f2sq_group,
                               _f2sq_module, _zn_group)
from nearrings.classify import all_element_profiles
import nearrings.cli as cli
from nearrings.cli import main
from nearrings.core import (_MAX_DIGITS, DEFAULT_ORDER_CAP, TABLE_DTYPE, NearRing, _check_table,
                            same_tables)
from nearrings.nmodules import right_escape


def assert_frozen_table(table):
    assert TABLE_DTYPE is np.int16
    assert isinstance(table, np.ndarray) and table.dtype == TABLE_DTYPE
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table.flat[0] = 0


def ring_tables(ring):
    return (ring.group.add, ring.group.neg, ring.mul)


def klein4_document(shift_identity=False):
    add, mul = _KLEIN4_ADD, _KLEIN4_MUL
    if shift_identity:  # swap elements 0 and 1, so the identity sits at 1
        perm = [1, 0, 2, 3]
        add = [[perm[add[perm[i]][perm[j]]] for j in range(4)] for i in range(4)]
        mul = [[perm[mul[perm[i]][perm[j]]] for j in range(4)] for i in range(4)]
    return json.dumps({"format": "nearring-table/1", "name": "k4", "order": 4,
                       "labels": ["0", "a", "b", "c"], "add": add, "mul": mul})


def constructions(tmp_path):
    """(name, tables) for every construction path."""
    path = tmp_path / "ring.json"
    path.write_text(emit_table(builtin("mat2_f2")))
    ring = builtin("klein4_ring")
    raw = parse_table(klein4_document(shift_identity=True))
    module = validate_module(builtin("zn_ring(2)"), _zn_group(2), [[0, 0], [0, 1]])
    quotient = quotient_module(regular_representation(builtin("zn_ring(4)")), {0, 2}).module
    bare = NModule(ring=ring, carrier=ring.group, action=[list(r) for r in _KLEIN4_MUL])
    yield "validate_group", (validate_group([[0, 1], [1, 0]]).add,
                             validate_group([[0, 1], [1, 0]]).neg)
    yield "validate_nearring lists", ring_tables(validate_nearring(_KLEIN4_ADD, _KLEIN4_MUL))
    yield "validate_nearring int32 arrays", ring_tables(validate_nearring(
        np.array(_KLEIN4_ADD, dtype=np.int32), np.array(_KLEIN4_MUL, dtype=np.uint8)))
    yield "build_M0", ring_tables(build_M0(_zn_group(3)))
    yield "build_product", ring_tables(build_product([ring, builtin("zn_ring(3)")]))
    yield "build_extension", ring_tables(builtin("ext_mat2f2_f2sq"))
    yield "parse_table", (raw.add, raw.mul)
    yield "from_document re-indexed", ring_tables(from_document(raw))
    yield "load_nearring", ring_tables(load_nearring(path))
    for name in ("klein4_ring", "zn_ring(5)", "m0_z3", "mat2_f2", "ext_f2_f2", "klein4_x_f2"):
        yield f"builtin {name}", ring_tables(builtin(name))
    yield "replace with lists", (dataclasses.replace(ring, mul=_KLEIN4_MUL).mul,
                                 dataclasses.replace(ring.group, add=_KLEIN4_ADD,
                                                     neg=[0, 1, 2, 3]).neg)
    yield "replace with a writable array", (dataclasses.replace(
        ring, mul=np.array(_KLEIN4_MUL)).mul,)
    yield "bare NModule", (bare.action,)
    yield "FiniteGroup from tuples", (FiniteGroup(order=2, add=((0, 1), (1, 0)), neg=(0, 1)).add,)
    yield "regular_representation", (regular_representation(ring).action,)
    yield "validate_module", (module.action,)
    yield "quotient_module", (quotient.action, quotient.carrier.add, quotient.carrier.neg)


def test_every_construction_path_yields_read_only_table_dtype(tmp_path):
    for name, tables in constructions(tmp_path):
        for table in tables:
            assert_frozen_table(table)


def test_table_dtype_holds_every_index_and_every_decoded_number():
    limits = np.iinfo(TABLE_DTYPE)
    assert limits.min <= 0 and DEFAULT_ORDER_CAP - 1 <= limits.max
    assert 10 ** _MAX_DIGITS - 1 <= limits.max


@pytest.mark.parametrize("entry", [2 ** 15, 70000, -(2 ** 15) - 1])
def test_an_entry_beyond_the_table_dtype_raises_rather_than_wraps(entry):
    ring = builtin("klein4_ring")
    mul = [list(row) for row in _KLEIN4_MUL]
    mul[1][2] = entry
    for table in (mul, np.array(mul)):
        with pytest.raises(TableFormatError, match="out of the int16 range"):
            dataclasses.replace(ring, mul=table)
        with pytest.raises(TableFormatError, match="out of the int16 range"):
            NModule(ring=ring, carrier=ring.group, action=table)


def test_a_writable_array_is_copied_not_frozen_in_place():
    mul = np.array(_KLEIN4_MUL)
    ring = dataclasses.replace(builtin("klein4_ring"), mul=mul)
    assert mul.flags.writeable and ring.mul is not mul
    mul[1, 1] = 3
    assert ring.mul[1, 1] == 1


def test_shared_tables_are_not_copied():
    ring = builtin("klein4_ring")
    assert regular_representation(ring).action is ring.mul
    assert dataclasses.replace(ring, name="copy").mul is ring.mul
    assert validate_nearring(ring.add, ring.mul).mul is ring.mul


def test_equality_is_identity():
    ring, again = builtin("klein4_ring"), validate_nearring(_KLEIN4_ADD, _KLEIN4_MUL,
                                                            labels=("0", "a", "b", "c"),
                                                            name="klein4_ring")
    assert ring == ring and ring != again and same_tables(ring, again)
    assert len({ring, again, ring.group, again.group}) == 4
    assert not same_tables(ring, builtin("zn_ring(4)"))


def test_a_numpy_unity_is_stored_as_an_int():
    ring = validate_nearring(np.array(_KLEIN4_ADD), np.array(_KLEIN4_MUL), one=np.int64(2))
    assert type(ring.one) is int
    assert json.loads(emit_table(ring))["one"] == 2


class TestCheckTable:
    def test_integer_array_is_accepted(self):
        group = validate_group(np.array([[0, 1], [1, 0]], dtype=np.int16))
        assert group.add.tolist() == [[0, 1], [1, 0]]

    def test_numpy_integers_in_lists_are_accepted(self):
        ring = validate_nearring([[np.int64(0), 1], [1, np.int32(0)]], [[0, 0], [0, 1]])
        assert ring.mul.tolist() == [[0, 0], [0, 1]]

    @pytest.mark.parametrize("add, message", [
        (np.array([[0, 1], [1, 2]]), "add: entry 2 in row 1 out of range [0,2)"),
        (np.array([[0, -1], [1, 0]]), "add: entry -1 in row 0 out of range [0,2)"),
        (np.array([[0, 1], [1, 0]], dtype=bool), "add: entry False in row 0 out of range [0,2)"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "add: entry 0.0 in row 0 out of range [0,2)"),
        (np.array([[0, 1, 0], [1, 0, 1]]), "add: row 0 has 3 entries, expected 2"),
        ([[0, 1], [1, np.bool_(False)]],
         f"add: entry {np.bool_(False)!r} in row 1 out of range [0,2)"),
    ])
    def test_array_errors_name_the_first_offender(self, add, message):
        with pytest.raises(TableFormatError) as exc:
            validate_group(add)
        assert str(exc.value) == message

    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6),
           dtype=st.sampled_from((None, np.int64, np.int16)))
    @settings(max_examples=200, deadline=None)
    def test_out_of_range_message_matches_the_loop(self, data, rows, cols, dtype):
        table = data.draw(st.lists(st.lists(st.integers(0, cols - 1), min_size=cols,
                                            max_size=cols), min_size=rows, max_size=rows))
        for _ in range(data.draw(st.integers(1, 3))):
            table[data.draw(st.integers(0, rows - 1))][data.draw(st.integers(0, cols - 1))] = \
                data.draw(st.one_of(st.integers(-5, -1), st.integers(cols, cols + 5)))
        expected = next(f"mul: entry {v!r} in row {i} out of range [0,{cols})"
                        for i, row in enumerate(table) for v in row if not 0 <= v < cols)
        with pytest.raises(TableFormatError) as exc:
            _check_table(table if dtype is None else np.array(table, dtype=dtype),
                         rows, cols, "mul")
        assert str(exc.value) == expected

    def test_document_entry_beyond_int64(self):
        doc = json.loads(klein4_document())
        doc["mul"][3][2] = 2 ** 64
        with pytest.raises(TableFormatError) as exc:
            parse_table(json.dumps(doc))
        assert str(exc.value) == f"mul: entry {2 ** 64} in row 3 out of range [0,4)"


class TestOrderCap:
    def test_declared_order_over_cap_raises_before_the_tables_are_read(self):
        doc = {"format": "nearring-table/1", "name": "huge", "order": DEFAULT_ORDER_CAP + 1,
               "add": "never read", "mul": None}
        with pytest.raises(CapExceeded) as exc:
            parse_table(json.dumps(doc))
        assert str(exc.value) == f"order {DEFAULT_ORDER_CAP + 1} exceeds cap {DEFAULT_ORDER_CAP}"

    def test_order_at_cap_is_read(self):
        doc = {"format": "nearring-table/1", "name": "x", "order": DEFAULT_ORDER_CAP,
               "add": [[0]], "mul": [[0]]}
        with pytest.raises(TableFormatError, match="expected 4096 rows"):
            parse_table(json.dumps(doc))


# ---------------------------------------------------------------------------
# no numpy scalar escapes


def numpy_leaks(value, path="value"):
    """Paths inside ``value`` that hold a numpy scalar or array, or a string
    with the repr of one (numpy 2 prints ``np.True_``, ``np.int16(3)``,
    ``np.uint8(3)``).  Groups, near-rings and modules hold their tables as
    arrays by design and are not entered."""
    if isinstance(value, (np.generic, np.ndarray)):
        yield f"{path}: {type(value).__name__}"
    elif isinstance(value, str):
        if re.search(r"np\.(True_|False_|u?int\d+\()", value):
            yield f"{path}: {value!r}"
    elif isinstance(value, (FiniteGroup, NearRing, NModule)):
        return
    elif isinstance(value, tuple) and hasattr(value, "_fields"):  # a NamedTuple record
        for name, field in zip(value._fields, value):
            yield from numpy_leaks(field, f"{path}.{name}")
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from numpy_leaks(k, f"{path} key {k!r}")
            yield from numpy_leaks(v, f"{path}[{k!r}]")
    elif isinstance(value, (tuple, list, set, frozenset)):
        for i, v in enumerate(value):
            yield from numpy_leaks(v, f"{path}[{i}]")


def swapped(ring, u, x1, x2):
    mul = ring.mul.tolist()
    mul[x1][u], mul[x2][u] = mul[x2][u], mul[x1][u]
    return dataclasses.replace(ring, mul=mul, name=f"{ring.name} swapped")


def leak_corpus():
    """The default corpus, M0(Z4), a non-ring product, and unvalidated
    copies on which several theorem cells fail."""
    corpus = list(default_corpus())
    corpus.append(("m0_z4", build_M0(_zn_group(4), name="m0_z4")))
    corpus.append(("m0_z3 x z6", build_product([builtin("m0_z3"), builtin("zn_ring(6)")])))
    corpus.append(("z5 swapped", swapped(builtin("zn_ring(5)"), 2, 1, 4)))
    corpus.append(("z8 swapped", swapped(builtin("zn_ring(8)"), 3, 2, 5)))
    corpus.append(("k4 swapped", swapped(builtin("klein4_ring"), 2, 1, 3)))
    mat2 = builtin("mat2_f2")
    mul = mat2.mul.tolist()
    mul[7][14] = 1  # prop64 fails with its three conditions in the clause
    corpus.append(("mat2 entry", dataclasses.replace(mat2, mul=mul, name="mat2 entry")))
    return corpus


def test_no_numpy_scalar_in_profiles_and_reports():
    corpus = leak_corpus()
    for name, ring in corpus:
        found = list(numpy_leaks((ring.one, ring.flag_witnesses), name))
        found += numpy_leaks(all_element_profiles(ring), name)
        found += numpy_leaks(structure_profile(ring), name)
        if ring.one is not None:
            found += numpy_leaks(units(ring), name)
        found += numpy_leaks([orbit(ring, "left", a) for a in range(ring.order)], name)
        found += numpy_leaks(enumerate_left_ideals(ring), name)
        assert not found, found
    report = run_suite(corpus)
    assert {r.status for _, r in report.cells} >= {"pass", "fail", "not_applicable"}
    assert not list(numpy_leaks(report)), list(numpy_leaks(report))


def test_no_numpy_scalar_in_verify_text(monkeypatch):
    # Files are validated on loading, so the unvalidated copies come in
    # behind the loader.
    monkeypatch.setattr(cli, "_collect_inputs", lambda paths, out: (leak_corpus(), 0))
    out = io.StringIO()
    assert main(["verify"], out=out) == 2
    assert " at (" in out.getvalue() and "np." not in out.getvalue()


def test_no_numpy_scalar_in_verdicts_homs_isos_and_quotients():
    ring = builtin("zn_ring(6)")
    rep = regular_representation(ring)
    found = []
    for subset in ({0, 3}, {0, 1}, {0, 2, 4}, {1}):
        found += numpy_leaks(is_N_ideal(rep, subset))
    quot = quotient_module(rep, {0, 2, 4})
    found += numpy_leaks(quot)
    found += numpy_leaks(hom_from_cyclic_generator(rep, 1, rep, 5))
    found += numpy_leaks(hom_from_cyclic_generator(rep, 1, {0, 3}, 3))
    ann = annihilator(ring, "left", {2})  # {0, 3}, isomorphic to N/N2
    found += numpy_leaks(modules_isomorphic(quot.module, ann, mode="bruteforce"))
    found += numpy_leaks(modules_isomorphic(quot.module, ann))
    found += numpy_leaks(modules_isomorphic(_f2sq_module(), _f2sq_module(), mode="bruteforce"))
    with pytest.raises(AxiomViolation) as exc:
        validate_nearring(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [0, 1]]))
    found += numpy_leaks(exc.value.witness)
    assert not found, found
    assert modules_isomorphic(quot.module, ann, mode="bruteforce").witness == (0, 3)


# ---------------------------------------------------------------------------
# the numpy constructions and ideal test against the loops they replace


def reference_M0_tables(g):
    n, gadd = g.order, g.add.tolist()
    vecs = [(0,) + tail for tail in itertools.product(range(n), repeat=n - 1)]
    index = {v: i for i, v in enumerate(vecs)}
    add = [[index[tuple(gadd[f[x]][h[x]] for x in range(n))] for h in vecs] for f in vecs]
    mul = [[index[tuple(f[h[x]] for x in range(n))] for h in vecs] for f in vecs]
    return add, mul


@pytest.mark.parametrize("group", [lambda: _zn_group(2), lambda: _zn_group(3),
                                   lambda: _zn_group(4), _f2sq_group])
def test_M0_matches_the_loop(group):
    g = group()
    ring = build_M0(g)
    assert (ring.add.tolist(), ring.mul.tolist()) == reference_M0_tables(g)
    assert ring.group.labels == tuple(f"f{i + 1}" for i in range(ring.order))


def reference_extension_tables(ring, module):
    r_n, m_n = ring.order, module.carrier.order
    radd, rmul = ring.add.tolist(), ring.mul.tolist()
    madd, act = module.carrier.add.tolist(), module.action.tolist()
    total = r_n * m_n
    add = [[0] * total for _ in range(total)]
    mul = [[0] * total for _ in range(total)]
    for a1, m1, a2, m2 in itertools.product(range(r_n), range(m_n), range(r_n), range(m_n)):
        i, j = a1 * m_n + m1, a2 * m_n + m2
        add[i][j] = radd[a1][a2] * m_n + madd[m1][m2]
        mul[i][j] = rmul[a1][a2] * m_n + madd[act[a1][m2]][m1]
    return add, mul, ring.one * m_n


def z4_over_z2():
    ring = builtin("zn_ring(4)")
    return ring, validate_module(ring, _zn_group(2), [[(r * m) % 2 for m in range(2)]
                                                      for r in range(4)])


@pytest.mark.parametrize("make", [
    lambda: (builtin("zn_ring(2)"), _f2_module()),
    lambda: (builtin("mat2_f2"), _f2sq_module()),
    z4_over_z2,
    lambda: (builtin("zn_ring(6)"), regular_representation(builtin("zn_ring(6)"))),
])
def test_extension_matches_the_loop(make):
    ring, module = make()
    ext = build_extension(ring, module)
    assert (ext.add.tolist(), ext.mul.tolist(), ext.one) == \
        reference_extension_tables(ring, module)
    assert ext.extension == (ring, module)


def test_extension_accepts_a_module_over_equal_tables():
    ring, module = z4_over_z2()
    twin = validate_nearring(ring.add, ring.mul, name="twin")
    assert same_tables(build_extension(twin, module), build_extension(ring, module))
    with pytest.raises(ValueError, match="not over the given ring"):
        build_extension(builtin("zn_ring(2)"), module)


def reference_is_ideal(ring, subset):
    if not is_N_ideal(regular_representation(ring), subset):
        return "not_left_ideal", None
    mul, in_l = ring.mul.tolist(), frozenset(subset)
    for l in sorted(in_l):
        for x in range(ring.order):
            if mul[l][x] not in in_l:
                return "left_ideal", (l, x)
    return "two_sided_ideal", None


@pytest.mark.parametrize("name", ["mat2_f2", "m0_z3", "ext_f2_f2", "ext_mat2f2_f2sq",
                                  "klein4_x_f2", "zn_ring(12)"])
def test_is_ideal_and_right_escape_match_the_loop(name):
    ring = builtin(name)
    n = ring.order
    rng = np.random.default_rng(n)
    subsets = list(enumerate_left_ideals(ring))
    subsets += [frozenset(rng.choice(n, size=k, replace=False).tolist()) | {0}
                for k in (1, 2, n // 4, n // 2) for _ in range(10)]
    for subset in subsets:
        verdict, pair = reference_is_ideal(ring, subset)
        assert is_ideal(ring, subset) == verdict
        if verdict != "not_left_ideal":
            assert right_escape(ring, subset) == pair

