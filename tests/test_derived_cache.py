"""The per-instance derived-data cache: lifetime, keys and shared arrays."""
import contextlib
import dataclasses
import functools
import gc
import io
import weakref
from unittest import mock

import numpy as np
import pytest

import nearrings.classify as classify
import nearrings.core as core
from nearrings import (
    build_product,
    builtin,
    check,
    emit_table,
    regular_representation,
    run_suite,
    structure_profile,
    validate_nearring,
)
from nearrings.catalog import _KLEIN4_ADD, _KLEIN4_MUL, default_corpus
from nearrings.cli import main
from nearrings.core import (_generators, endomorphism_rows, group_generators, laws_hold,
                            same_tables)
from nearrings.nmodules import orbit_is_N_ideal


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
    endo = ring.derived["endomorphism_rows",]
    assert ring.derived["laws_hold",] is True and laws_hold(ring) is True
    assert endomorphism_rows(ring) is endo and not endo.flags.writeable
    assert endo.tolist() == exhaustive_endomorphism_rows(ring) == [True] * 4
    mul = ring.mul.copy()
    mul[1, 3] = 1   # (1+2)*3 = 3 but 1*3 + 2*3 = 2; 1*(2+3) = 1 but 1*2 + 1*3 = 0
    broken = dataclasses.replace(ring, mul=mul)
    assert broken.derived == {}
    assert laws_hold(broken) is False
    assert endomorphism_rows(broken).tolist() == exhaustive_endomorphism_rows(broken)
    assert not endomorphism_rows(broken)[1]


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
    assert laws_hold(copy) and not endomorphism_rows(copy).all()
    expected = orbit_is_N_ideal(m0)
    assert not expected.all()
    assert np.array_equal(orbit_is_N_ideal(copy), expected)


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
