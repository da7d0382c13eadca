"""The per-instance derived-data cache: lifetime, keys and shared arrays."""
import contextlib
import dataclasses
import functools
import gc
import inspect
import io
import itertools
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nearrings.classify as classify
import nearrings.cli as cli
import nearrings.core as core
import nearrings.nmodules as nmodules
from nearrings import (
    NonUnitalError,
    all_element_profiles,
    build_product,
    builtin,
    check,
    emit_table,
    is_N_ideal,
    orbit,
    regular_representation,
    run_suite,
    structure_profile,
    validate_nearring,
)
from nearrings.catalog import _KLEIN4_ADD, _KLEIN4_MUL, _zn_group, default_corpus
from nearrings.cli import main
from nearrings.core import _generators, build_M0, group_generators, laws_hold, same_tables
from nearrings.nmodules import orbit_is_N_ideal
from test_fast_laws import dihedral, projection, reference_left_dist_witness, relabelled_near_rings


def fresh_klein4():
    return validate_nearring(_KLEIN4_ADD, _KLEIN4_MUL, labels=("0", "a", "b", "c"),
                             name="fresh")


def test_fresh_ring_is_collected_after_classification():
    ring = fresh_klein4()
    structure_profile(ring)
    report = run_suite([("fresh", ring)])
    assert report.aggregate == "pass"
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None


def test_validation_arrays_are_the_cached_views():
    ring = fresh_klein4()
    add, neg, mul = ring.group.add, ring.group.neg, ring.mul
    assert regular_representation(ring).action is mul
    assert dataclasses.replace(ring, name="copy").mul is mul
    assert add.tolist() == _KLEIN4_ADD
    assert neg.tolist() == [0, 1, 2, 3]
    assert mul.tolist() == _KLEIN4_MUL
    assert not (add.flags.writeable or neg.flags.writeable or mul.flags.writeable)


def test_cache_is_not_part_of_equality_or_copies():
    ring, other = fresh_klein4(), fresh_klein4()
    structure_profile(ring)
    assert same_tables(ring, other) and len(ring.derived) > len(other.derived)
    renamed = dataclasses.replace(ring, name="renamed")
    assert renamed.derived == {} and renamed.derived is not ring.derived


def test_validation_stores_the_generators():
    ring = fresh_klein4()
    gens = ring.group.derived["group_generators",]
    assert gens == _generators(ring.group.add) == [1, 2]
    assert group_generators(ring.group) is gens


def exhaustive_endomorphism_rows(ring):
    """Per row x, whether x*(y+z) = x*y + x*z for every y and z."""
    add, mul = ring.add, ring.mul
    return [bool((mul[x][add] == add[mul[x][:, None], mul[x]]).all())
            for x in range(ring.order)]


def test_validation_stores_the_law_verdicts():
    ring = fresh_klein4()
    assert ("endomorphism_rows",) not in ring.derived
    assert ring.derived["laws_hold",] is True and laws_hold(ring) is True
    assert exhaustive_endomorphism_rows(ring) == [True] * 4
    assert ring.flags.left_distributive and ring.flag_witnesses == ()
    mul = ring.mul.copy()
    mul[1, 3] = 1   # (1+2)*3 = 3 but 1*3 + 2*3 = 2; 1*(2+3) = 1 but 1*2 + 1*3 = 0
    broken = dataclasses.replace(ring, mul=mul)
    assert broken.derived == {}
    assert laws_hold(broken) is False
    assert exhaustive_endomorphism_rows(broken) == [True, False, True, True]
    assert not broken.flags.left_distributive
    assert dict(broken.flag_witnesses)["left_distributive"][0] == 1
    assert ("endomorphism_rows",) not in broken.derived


FRESH_RINGS = {
    "klein4_ring": fresh_klein4,
    "zn4_x_m0_z3": lambda: build_product((builtin("zn_ring(4)"), builtin("m0_z3"))),
}


@pytest.mark.parametrize("name", sorted(FRESH_RINGS))
def test_consumers_read_the_stored_verdict(monkeypatch, name):
    ring = FRESH_RINGS[name]()
    calls = []
    holds = core._holds
    monkeypatch.setattr(core, "_holds", lambda bad, rows: calls.append(rows) or holds(bad, rows))
    orbit_is_N_ideal(ring)
    assert check(ring, "lemma10").status == "pass"
    assert calls == []
    # A copy starts with an empty cache and checks its own tables.
    copy = dataclasses.replace(ring, name="copy")
    assert np.array_equal(orbit_is_N_ideal(copy), orbit_is_N_ideal(ring))
    assert calls


def test_stale_flags_do_not_reach_the_orbit_test():
    # Z3 x Z3 and M0(Z3) have the same addition table, so the copy has the
    # ring's unity over the near-ring's tables; its flags are the near-ring's.
    m0 = builtin("m0_z3")
    ring = build_product((builtin("zn_ring(3)"),) * 2)
    copy = dataclasses.replace(ring, mul=m0.mul)
    assert same_tables(copy, m0) and not copy.flags.left_distributive
    assert copy.flags == m0.flags and copy.flag_witnesses == m0.flag_witnesses
    assert laws_hold(copy) and not all(exhaustive_endomorphism_rows(copy))
    expected = orbit_is_N_ideal(m0)
    assert not expected.all()
    assert np.array_equal(orbit_is_N_ideal(copy), expected)


def law_broken_m0_z4():
    ring = build_M0(_zn_group(4))
    mul = ring.mul.copy()
    mul[5, 7] = 3
    return dataclasses.replace(ring, mul=mul)


CACHED_RINGS = {
    "m0_z3": lambda: builtin("m0_z3"),
    "mat2_f2": lambda: builtin("mat2_f2"),
    "m0_z4": lambda: build_M0(_zn_group(4)),
    "m0_z4_law_broken": law_broken_m0_z4,
}


@pytest.mark.parametrize("name", sorted(CACHED_RINGS))
def test_derived_cache_holds_only_memoised_values(name):
    # Each entry (name, *args) is what the memoised function of that name
    # returns for those arguments.  The wrapper returns a stored entry for
    # any arguments, so they are first bound to the wrapped signature.
    ring = CACHED_RINGS[name]()
    all_element_profiles(ring)
    structure_profile(ring)
    run_suite([(name, ring)])
    for obj in (ring, ring.group):
        assert obj.derived
        for (fn_name, *args), value in list(obj.derived.items()):
            fn, = {getattr(m, fn_name) for m in (core, nmodules, classify) if hasattr(m, fn_name)}
            inspect.signature(fn.__wrapped__).bind(obj, *args)
            assert fn(obj, *args) is value


# ---------------------------------------------------------------------------
# the left-distributive flag and the N-ideal movers, decided over the
# additive generators, against the exhaustive endomorphism rows


def endomorphism_near_ring_s3():
    """E(S3): the 54 maps S3 -> S3 that sums and composites of the 10
    endomorphisms of S3 give, under pointwise + and composition, with the
    zero map first and the other endomorphisms next.  (N,+) is not abelian,
    its greedy generators [1, 2, 4] are endomorphisms, and row 10 is the
    first that is not."""
    perms = sorted(itertools.permutations(range(3)))  # perms[0] is the identity
    at = {p: i for i, p in enumerate(perms)}
    op = [[at[tuple(p[i] for i in q)] for q in perms] for p in perms]  # p after q
    elems = [f for f in itertools.product(range(6), repeat=6)
             if all(f[op[x][y]] == op[f[x]][f[y]] for x in range(6) for y in range(6))]
    at = {f: i for i, f in enumerate(elems)}
    for f in elems:  # closes under sums and composites as it grows
        for h in elems[:at[f] + 1]:
            for a, b in ((f, h), (h, f)):
                for c in (tuple(op[a[v]][b[v]] for v in range(6)),
                          tuple(a[b[v]] for v in range(6))):
                    if c not in at:
                        at[c] = len(elems)
                        elems.append(c)
    add = [[at[tuple(op[a[v]][b[v]] for v in range(6))] for b in elems] for a in elems]
    mul = [[at[tuple(a[b[v]] for v in range(6))] for b in elems] for a in elems]
    return validate_nearring(add, mul, name="e_s3")


def dihedral_projection(k):
    add = dihedral(k)
    return validate_nearring(add, projection(add))


FAMILY = {
    "e_s3": endomorphism_near_ring_s3,
    "m0_z4": lambda: build_M0(_zn_group(4)),
    "m0_z3 x zn_ring(4)": lambda: build_product((builtin("m0_z3"), builtin("zn_ring(4)"))),
    "m0_z3 x klein4_ring": lambda: build_product((builtin("m0_z3"), builtin("klein4_ring"))),
    "d8_projection": lambda: dihedral_projection(8),
    "d4_projection x zn_ring(3)": lambda: build_product((dihedral_projection(4),
                                                         builtin("zn_ring(3)"))),
    "d3_projection x m0_z3": lambda: build_product((dihedral_projection(3), builtin("m0_z3"))),
}


@functools.lru_cache(maxsize=None)
def family_ring(name):
    return FAMILY[name]()


@st.composite
def near_rings(draw):
    """A freshly validated near-ring: a relabelled projection ring or Z_n
    ring, or a member of ``FAMILY`` under a permutation fixing 0 (maybe
    the identity)."""
    if draw(st.booleans()):
        return validate_nearring(*draw(relabelled_near_rings()))
    ring = family_ring(draw(st.sampled_from(sorted(FAMILY))))
    n = ring.order
    p = np.arange(n)
    if draw(st.booleans()):
        p[1:] = draw(st.permutations(range(1, n)))
    inv = np.argsort(p)
    move = lambda t: p[t[inv[:, None], inv]]  # noqa: E731
    return validate_nearring(move(ring.add), move(ring.mul),
                             one=None if ring.one is None else int(p[ring.one]))


@st.composite
def corrupted_copies(draw):
    """A ``dataclasses.replace`` copy of a near-ring with 1 to 3 ``mul``
    entries overwritten, row 0 and column 0 included."""
    ring = draw(near_rings())
    n, mul = ring.order, ring.mul.copy()
    for _ in range(draw(st.integers(1, 3))):
        mul[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return dataclasses.replace(ring, mul=mul)


def reference_orbit_is_N_ideal(ring):
    """Per a, the stage scans' verdict on Na, once per distinct orbit."""
    rep, verdicts = regular_representation(ring), {}
    for a in range(ring.order):
        na = orbit(ring, "left", a)
        if na not in verdicts:
            verdicts[na] = bool(is_N_ideal(rep, na))
        yield verdicts[na]


def assert_matches_the_exhaustive_rows(ring):
    endo = exhaustive_endomorphism_rows(ring)
    witness = dict(ring.flag_witnesses).get("left_distributive")
    assert ring.flags.left_distributive == all(endo)
    assert witness == reference_left_dist_witness(ring.add, ring.mul)
    assert witness is None or witness[0] == endo.index(False)
    assert orbit_is_N_ideal(ring).tolist() == list(reference_orbit_is_N_ideal(ring))
    assert ("endomorphism_rows",) not in ring.derived


@given(ring=near_rings())
@settings(max_examples=200, deadline=None)
def test_flags_and_movers_match_the_exhaustive_rows(ring):
    assert_matches_the_exhaustive_rows(ring)


@given(ring=corrupted_copies())
@settings(max_examples=200, deadline=None)
def test_corrupted_copies_match_the_exhaustive_rows(ring):
    assert_matches_the_exhaustive_rows(ring)


@pytest.mark.parametrize("test", [test_flags_and_movers_match_the_exhaustive_rows,
                                  test_corrupted_copies_match_the_exhaustive_rows],
                         ids=lambda test: test.__name__)
def test_exhaustive_rows_in_one_row_blocks(test):
    # One row per block: the first block with a bad row is that row's.
    with mock.patch.object(core, "_TEMP_BYTES", 1):
        test()


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_generator_rows_decide_nothing_when_the_laws_fail(n):
    # Z_n has S = [1].  Overwriting 2*1 breaks right distributivity and
    # leaves row 1 an endomorphism, so the S rows prove nothing here.
    ring = builtin(f"zn_ring({n})")
    mul = ring.mul.copy()
    mul[2, 1] = 0
    copy = dataclasses.replace(ring, mul=mul)
    endo = exhaustive_endomorphism_rows(copy)
    assert group_generators(copy.group) == [1] and not laws_hold(copy)
    assert endo.index(False) == 2
    assert_matches_the_exhaustive_rows(copy)


def test_generator_rows_decide_nothing_on_a_non_abelian_group():
    ring = endomorphism_near_ring_s3()
    endo = exhaustive_endomorphism_rows(ring)
    assert ring.order == 54 and group_generators(ring.group) == [1, 2, 4]
    assert laws_hold(ring) and not ring.flags.abelian_add
    assert all(endo[:10]) and endo.index(False) == 10
    assert_matches_the_exhaustive_rows(ring)


def test_flag_scans_run_once_per_ring(monkeypatch, tmp_path):
    scanned = []
    scan = core.flag_scan.__wrapped__

    @functools.wraps(scan)
    def counted(ring):
        scanned.append(ring)
        return scan(ring)

    monkeypatch.setattr(core, "flag_scan", core.memoized(counted))
    for name in ("klein4_ring", "m0_z3"):
        path = tmp_path / f"{name}.json"
        path.write_text(emit_table(builtin(name)))
        for argv in (["validate"], ["classify", "--format", "json"], ["verify"]):
            main([argv[0], str(path), *argv[1:]], out=io.StringIO())
    # Each command loads its own ring, which reads its flags and scans once.
    assert len(scanned) == 6
    assert len({id(ring) for ring in scanned}) == 6


@pytest.fixture()
def computed_columns(monkeypatch):
    """(ring, name) for every per-element column computed during the test."""
    computed = []
    for name, build in list(classify._COLUMNS.items()):
        def counted(ring, name=name, build=build):
            computed.append((ring, name))
            return build(ring)
        monkeypatch.setitem(classify._COLUMNS, name, counted)
    return computed


def test_each_column_is_computed_once_per_ring(computed_columns, tmp_path):
    path = tmp_path / "klein4.json"
    path.write_text(emit_table(builtin("klein4_ring")))
    corpus = [ring for _, ring in default_corpus()]
    with contextlib.ExitStack() as stack:
        # the builtins are shared: empty their caches here, restore them after
        for ring in corpus:
            stack.enter_context(mock.patch.dict(ring.derived, clear=True))
        main(["verify"], out=io.StringIO())
        main(["classify", str(path), "--format", "json"], out=io.StringIO())
    pairs = [(id(ring), name) for ring, name in computed_columns]
    assert len(set(pairs)) == len(pairs)
    # every column of the nine unital corpus rings and of the loaded ring
    assert len(pairs) == (len(corpus) + 1) * len(classify._COLUMNS)


def test_prop2_computes_no_regularity_column(computed_columns):
    ring = fresh_klein4()
    assert check(ring, "prop2").status == "pass"
    assert {name for _, name in computed_columns} == {"inverse", "morphic", "morphic_witness"}


@pytest.mark.parametrize("name", ["mat2_f2", "m0_z3", "ext_f2_f2"])
@pytest.mark.parametrize("first", ["profiles", "regular", "unit_regular"])
def test_inner_products_is_built_once_per_ring(monkeypatch, name, first):
    # the regular and unit-regular columns read one table (a*x)*a, whichever
    # is asked for first; ext_f2_f2 has no unity, so only the first
    built = []
    build = classify.inner_products

    def counted(ring):
        built.append(ring)
        return build(ring)

    monkeypatch.setattr(classify, "inner_products", counted)
    ring = dataclasses.replace(builtin(name), name="copy")  # empty cache
    unital = ring.one is not None
    if first != "profiles" and (unital or first == "regular"):
        classify.element_column(ring, first)
    profiles = classify.all_element_profiles(ring)
    assert built == [ring]
    products = build(ring)
    n = ring.order
    regular = [next((x for x in range(n) if products[a, x] == a), None) for a in range(n)]
    assert [p.regular_witness for p in profiles] == regular
    if unital:
        inverse = [p.inverse for p in profiles]
        assert [p.unit_witness for p in profiles] == [
            next((x for x in range(n) if products[a, x] == a and inverse[x] is not None), None)
            for a in range(n)]
    else:
        with pytest.raises(NonUnitalError):
            classify.element_column(ring, "unit_regular")


def test_corpus_and_text_classify_build_no_structure_profile(monkeypatch, tmp_path):
    # the verdict is read from four element columns; M0(Z4), of order 64,
    # is within the enumeration cap, where the profile closes principal ideals
    called = []
    for module, name in ((cli, "structure_profile"), (classify, "structure_profile"),
                         (classify, "_ifp_witness"), (classify, "principal_ideals"),
                         (nmodules, "principal_ideals")):
        def counted(*args, _real=getattr(module, name), _name=name):
            called.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    rings = [builtin(name) for name in ("m0_z3", "mat2_f2", "ext_f2_f2", "zn_ring(12)")]
    rings.append(build_M0(_zn_group(4)))
    for i, ring in enumerate(rings):
        (tmp_path / f"{i}.json").write_text(emit_table(ring))
    out = io.StringIO()
    assert main(["corpus", str(tmp_path)], out=out) == 0
    assert out.getvalue().count("\n") == len(rings)
    for i in range(len(rings)):
        assert main(["classify", str(tmp_path / f"{i}.json")], out=io.StringIO()) == 0
    assert called == []
    # the JSON form prints every structure field, so it builds the profile
    assert main(["classify", str(tmp_path / "4.json"), "--format", "json"],
                out=io.StringIO()) == 0
    assert called.count("structure_profile") == 1
    assert {"_ifp_witness", "principal_ideals"} <= set(called)
