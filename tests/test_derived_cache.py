"""The per-instance derived-data cache: lifetime, keys and shared arrays."""
import dataclasses
import gc
import weakref

from nearrings import (
    is_left_morphic,
    regular_representation,
    run_suite,
    structure_profile,
    validate_nearring,
)
from nearrings.catalog import _KLEIN4_ADD, _KLEIN4_MUL
from nearrings.core import _generators, group_generators, same_tables


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


def test_cross_check_is_its_own_entry():
    ring = fresh_klein4()
    plain = is_left_morphic(ring, 1)
    assert not plain.cross_checked
    checked = is_left_morphic(ring, 1, cross_check=True)
    assert checked.cross_checked
    assert checked.status == plain.status and checked.witness == plain.witness
    assert is_left_morphic(ring, 1) is plain


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
