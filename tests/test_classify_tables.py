"""The whole-ring classification tables against the per-element scans.

The oracles are the scans the tables replace: ``is_N_ideal`` on each left
orbit, the ascending morphic witness loop over b, the pure-Python IFP,
weak-divisibility and subcommutativity loops, orbit and annihilator sets
built element by element, and the double loop for units.  The main inputs
are validated near-rings, where ``orbit_is_N_ideal`` ranges r over
generators of (N,+) only; random relabellings (fixing 0) move the generating
sets and the first witnesses.  Copies with scrambled products, built without
validation, check the fallback taken when right distributivity fails.
"""
import dataclasses
import itertools
import random
import re
import types
from contextlib import contextmanager
from functools import lru_cache, partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearrings import (
    IdealVerdict,
    InvariantError,
    MorphicVerdict,
    NearRingFlags,
    TheoremReport,
    annihilator,
    builtin,
    check,
    class_verdict,
    enumerate_left_ideals,
    is_left_morphic,
    is_N_ideal,
    orbit,
    regular_representation,
    structure_profile,
    validate_nearring,
)
from nearrings.catalog import DEFAULT_CORPUS_NAMES, _zn_group, default_corpus
import nearrings.classify as classify
import nearrings.core as core
import nearrings.nmodules as nmodules
import nearrings.theorems as theorems
from nearrings.classify import all_element_profiles, units
from nearrings.core import (_additive, _first_hit, _generators, _holds, _laws_hold, build_M0,
                            build_product, group_generators)
from test_fast_ideals import reference_is_N_ideal, subgroup
from nearrings.nmodules import (IDEAL_ENUM_ORDER_CAP, NModule, _cyclic_generator,
                                generated_submodule, orbit_is_N_ideal)

PRODUCTS = (("zn_ring(2)", "m0_z3"), ("zn_ring(4)", "zn_ring(6)"),
            ("klein4_ring", "mat2_f2"), ("mat2_f2", "zn_ring(2)"), ("m0_z3", "zn_ring(6)"))


def dihedral_add(m):
    """Dihedral group of order 2m; s^e r^i has index e*m + i."""
    n = 2 * m
    return [[(x // m ^ y // m) * m + (x % m + (1 - 2 * (x // m)) * (y % m)) % m
             for y in range(n)] for x in range(n)]


def dihedral_projection(m):
    """x*y = x for y != 0: non-abelian addition, no unity."""
    n = 2 * m
    return validate_nearring(dihedral_add(m), [[x if y else 0 for y in range(n)]
                                               for x in range(n)])


def dihedral_retract(m):
    """x*y = p(x) if p(y) != 0, else 0, where p(s^e r^i) = s^e is an
    idempotent endomorphism.  For a with p(a) != 0, Na = {0, s} is not a
    normal subgroup (m >= 3) but passes the r(l+m) - rm condition, so only
    the normality check rejects it."""
    n = 2 * m
    p = [x // m * m for x in range(n)]
    return validate_nearring(dihedral_add(m), [[p[x] if p[y] else 0 for y in range(n)]
                                               for x in range(n)])


SPECIAL = {
    "m0_z4": lambda: build_M0(_zn_group(4)),
    "dproj_3": lambda: dihedral_projection(3),
    "dproj_4": lambda: dihedral_projection(4),
    "dretract_3": lambda: dihedral_retract(3),
    "dretract_4": lambda: dihedral_retract(4),
    "dretract_6": lambda: dihedral_retract(6),
    # zero multiplication: Na = {0}, so a is not in Na for a != 0
    "zero_z2xz4": lambda: validate_nearring(
        [[(x // 4 ^ y // 4) * 4 + (x + y) % 4 for y in range(8)] for x in range(8)],
        [[0] * 8 for _ in range(8)]),
    "zero_d3": lambda: validate_nearring(dihedral_add(3), [[0] * 6 for _ in range(6)]),
}


@lru_cache(maxsize=None)
def ring_named(name):
    if name in SPECIAL:
        return SPECIAL[name]()
    return build_product([builtin(part) for part in name.split(" x ")])


RING_NAMES = (DEFAULT_CORPUS_NAMES + tuple(" x ".join(p) for p in PRODUCTS)
              + tuple(SPECIAL))


def relabelled(ring, seed):
    """A validated copy under a random permutation fixing 0 (seed 0: the ring)."""
    if seed == 0:
        return ring
    n = ring.order
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    perm = [0] + rest                               # old index -> new index
    inv = sorted(range(n), key=perm.__getitem__)    # new index -> old index

    def move(table):
        return [[perm[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]

    one = None if ring.one is None else perm[ring.one]
    return validate_nearring(move(ring.add), move(ring.mul), one=one)


# ---------------------------------------------------------------------------
# oracles: the element-by-element scans


def reference_orbits(ring):
    n, mul = ring.order, ring.mul
    return [frozenset(mul[x][a] for x in range(n)) for a in range(n)]


def reference_annihilators(ring):
    n, mul = ring.order, ring.mul
    return [frozenset(x for x in range(n) if mul[x][a] == 0) for a in range(n)]


def reference_orbit_is_N_ideal(ring):
    rep = regular_representation(ring)
    return [bool(is_N_ideal(rep, na)) for na in reference_orbits(ring)]


def reference_is_left_morphic(ring, a):
    orbits, anns = reference_orbits(ring), reference_annihilators(ring)
    verdict = is_N_ideal(regular_representation(ring), orbits[a])
    if not verdict:
        return ("na_not_ideal", None, verdict)
    for b in range(ring.order):
        if orbits[a] == anns[b] and orbits[b] == anns[a]:
            return ("morphic", b, None)
    return ("no_witness", None, None)


def reference_structure_witnesses(ring):
    """The IFP, subcommutativity and weak-divisibility witnesses, by the
    seed loops; a key is absent when the property holds."""
    n, mul = ring.order, ring.mul
    out = {}
    for a in range(n):
        for b in range(n):
            if mul[a][b] == 0:
                x = next((x for x in range(n) if mul[mul[a][x]][b] != 0), None)
                if x is not None:
                    out["has_ifp"] = (a, x, b)
                    break
        if "has_ifp" in out:
            break
    orbits = reference_orbits(ring)
    bad = next((a for a in range(n) if orbits[a] != frozenset(mul[a][x] for x in range(n))),
               None)
    if bad is not None:
        out["subcommutative"] = (bad,)
    for a in range(n):
        for b in range(n):
            if not any(mul[x][a] == b or mul[x][b] == a for x in range(n)):
                out["weakly_divisible"] = (a, b)
                break
        if "weakly_divisible" in out:
            break
    return out


def reference_units(ring):
    n, mul, one = ring.order, ring.mul, ring.one
    inv = [None] * n
    for a in range(n):
        for v in range(n):
            if mul[a][v] == one and mul[v][a] == one:
                inv[a] = v
                break
    return frozenset(a for a in range(n) if inv[a] is not None), tuple(inv)


TABLE_KEYS = ("has_ifp", "subcommutative", "weakly_divisible")

ring_and_seed = given(name=st.sampled_from(RING_NAMES),
                      seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1)))


@ring_and_seed
@settings(max_examples=80, deadline=None)
def test_batch_N_ideal_test_matches_per_orbit_test(name, seed):
    ring = relabelled(ring_named(name), seed)
    assert orbit_is_N_ideal(ring).tolist() == reference_orbit_is_N_ideal(ring)


@ring_and_seed
@settings(max_examples=60, deadline=None)
def test_morphic_verdicts_and_ideal_witnesses(name, seed):
    ring = relabelled(ring_named(name), seed)
    if ring.one is None:
        return
    for a in range(ring.order):
        v = is_left_morphic(ring, a)
        assert (v.status, v.witness, v.ideal_verdict) == reference_is_left_morphic(ring, a)


@ring_and_seed
@settings(max_examples=60, deadline=None)
def test_structure_flags_and_witnesses(name, seed):
    ring = relabelled(ring_named(name), seed)
    sp = structure_profile(ring)
    ref = reference_structure_witnesses(ring)
    assert (sp.has_ifp, sp.subcommutative, sp.weakly_divisible) == \
        tuple(key not in ref for key in TABLE_KEYS)
    others = {k: v for k, v in sp.witnesses.items() if k not in TABLE_KEYS}
    assert sp.witnesses == {**others, **ref}


def reference_ifp(ring):
    """The first IFP witness (a, x, b), or None, by an int32 matmul:
    outside[a, b] counts the members of aN outside (0:b)."""
    mul = ring.mul
    right = nmodules.orbit_masks(ring, "right")
    outside = right.astype(np.int32) @ (~nmodules.annihilator_masks(ring, "left")).T.astype(np.int32)
    bad = _first_hit((mul == 0) & (outside > 0))
    if bad is not None:
        a, b = bad
        x, = _first_hit(mul[mul[a], b] != 0)
        bad = (a, x, b)
    return bad


# IFP tests each distinct pair (aN, r(a)), r(a) = {b : ab = 0}, once.  Every
# aN, hence every pair, is distinct in the projection products, and every aN
# and every r(a) in the Boolean rings F2^k: n pairs each.  A pair's gather
# has |aN| * |r(a)| entries, n on a ring (first isomorphism theorem); M0(Z3)
# and M0(Z4), which are not rings, have pairs above n.
IFP_EXTRA = {"dproj_32": lambda: dihedral_projection(32),
             "dproj_48": lambda: dihedral_projection(48),
             "f2^5": lambda: build_product([builtin("zn_ring(2)")] * 5),
             "f2^8": lambda: build_product([builtin("zn_ring(2)")] * 8)}


@lru_cache(maxsize=None)
def ifp_ring(name):
    return IFP_EXTRA[name]() if name in IFP_EXTRA else ring_named(name)


def ifp_pairs(ring):
    """The packed rows aN and r(a) of every a, side by side."""
    return np.concatenate([np.packbits(nmodules.orbit_masks(ring, "right"), axis=1),
                           np.packbits(nmodules.annihilator_masks(ring, "right"), axis=1)],
                          axis=1)


def test_ifp_family_has_only_distinct_rows():
    for name in ("dproj_3", "dproj_4", "dproj_32", "dproj_48", "f2^5", "f2^8"):
        ring = ifp_ring(name)
        right = np.packbits(nmodules.orbit_masks(ring, "right"), axis=1)
        assert len(np.unique(right, axis=0)) == ring.order, name
        assert len(np.unique(ifp_pairs(ring), axis=0)) == ring.order, name
    for name in ("f2^5", "f2^8"):
        ring = ifp_ring(name)
        kernels = np.packbits(nmodules.annihilator_masks(ring, "right"), axis=1)
        assert len(np.unique(kernels, axis=0)) == ring.order, name
    above = []
    for name in RING_NAMES + tuple(IFP_EXTRA):
        ring = ifp_ring(name)
        sizes = (nmodules.orbit_masks(ring, "right").sum(axis=1)
                 * nmodules.annihilator_masks(ring, "right").sum(axis=1))
        if ring.is_ring():
            assert (sizes == ring.order).all(), name
        elif sizes.max() > ring.order:
            above.append(name)
    assert {"m0_z3", "m0_z4"} <= set(above)


@given(name=st.sampled_from(RING_NAMES + tuple(IFP_EXTRA)),
       seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_ifp_matches_the_matmul(name, seed, data):
    # Relabelled rings, and copies with up to three ``mul`` entries
    # overwritten without validation.
    ring = relabelled(ifp_ring(name), seed)
    n = ring.order
    for _ in range(data.draw(st.integers(0, 3))):
        ring = with_entry(ring, *(data.draw(st.integers(0, n - 1)) for _ in range(3)))
    sp, bad = structure_profile(ring), reference_ifp(ring)
    assert (sp.has_ifp, sp.witnesses.get("has_ifp")) == (bad is None, bad)


@pytest.mark.parametrize("name", RING_NAMES + tuple(IFP_EXTRA))
def test_ifp_matches_the_matmul_one_b_per_block(name):
    ring = relabelled(ifp_ring(name), 1)
    with mock.patch.object(core, "_TEMP_BYTES", 1):
        assert classify._ifp_witness(ring) == reference_ifp(ring)


def test_ifp_witness_needs_the_pair_the_right_kernel_and_ascending_classes():
    # M0(Z3) relabelled by seed 2 breaks IFP at a = 4, 5, 6 and 7, four
    # distinct pairs, so an order that does not visit 4's class first finds
    # another a.  1N = 4N, and 1 passes: a key on aN alone would test 4's
    # class on 1 only.  r(4) = {b : 4b = 0} is not (0:4) = {x : x4 = 0}.
    ring = relabelled(ring_named("m0_z3"), 2)
    right, kernel = nmodules.orbit_masks(ring, "right"), nmodules.annihilator_masks(ring, "right")
    fails = [bool((ring.mul[np.ix_(right[a], kernel[a])] != 0).any())
             for a in range(ring.order)]
    assert np.flatnonzero(fails).tolist() == [4, 5, 6, 7]
    assert len(np.unique(ifp_pairs(ring)[fails], axis=0)) == 4
    assert (right[1] == right[4]).all() and not fails[1]
    assert np.flatnonzero(kernel[4]).tolist() == [0, 2, 5, 6]
    assert np.flatnonzero(nmodules.annihilator_masks(ring, "left")[4]).tolist() == [0, 5, 7]
    assert reference_ifp(ring) == (4, 1, 2)
    assert structure_profile(ring).witnesses["has_ifp"] == (4, 1, 2)


@ring_and_seed
@settings(max_examples=60, deadline=None)
def test_orbits_annihilators_sizes_and_units(name, seed):
    ring = relabelled(ring_named(name), seed)
    n, mul = ring.order, ring.mul
    orbits, anns = reference_orbits(ring), reference_annihilators(ring)
    right_orbits = [frozenset(mul[a][x] for x in range(n)) for a in range(n)]
    right_anns = [frozenset(x for x in range(n) if mul[a][x] == 0) for a in range(n)]
    for a in range(n):
        assert orbit(ring, "left", a) == orbits[a]
        assert orbit(ring, "right", a) == right_orbits[a]
        assert annihilator(ring, "left", {a}) == anns[a]
        assert annihilator(ring, "right", {a}) == right_anns[a]
    subset = random.Random(seed).sample(range(n), k=min(n, 3))
    assert annihilator(ring, "left", subset) == frozenset.intersection(
        *(anns[s] for s in subset))
    assert annihilator(ring, "right", subset) == frozenset.intersection(
        *(right_anns[s] for s in subset))
    sizes = [(p.orbit_left_size, p.orbit_right_size, p.ann_left_size, p.ann_right_size)
             for p in all_element_profiles(ring)]
    assert sizes == [(len(orbits[a]), len(right_orbits[a]), len(anns[a]), len(right_anns[a]))
                     for a in range(n)]
    if ring.one is not None:
        assert units(ring) == reference_units(ring)


def test_retract_orbits_fail_normality_only():
    ring = ring_named("dretract_3")
    rep = regular_representation(ring)
    kinds = {is_N_ideal(rep, orbit(ring, "left", a)).kind for a in range(ring.order)}
    assert kinds == {"N_ideal", "not_normal"}
    assert orbit_is_N_ideal(ring).tolist() == [a < 3 for a in range(6)]


def counting_stage_scans(calls):
    """``nmodules._stage_scans``, recording each scanned subset as a frozenset."""
    scans = nmodules._stage_scans

    def counting(module, in_l):
        calls.append(frozenset(np.flatnonzero(in_l).tolist()))
        return scans(module, in_l)
    return counting


def test_is_N_ideal_runs_only_for_failing_orbits(monkeypatch):
    # The exhaustive stage scans of is_N_ideal, alone, give the first witness.
    ring = build_M0(_zn_group(4))
    calls = []
    monkeypatch.setattr(nmodules, "_stage_scans", counting_stage_scans(calls))
    for a in range(ring.order):
        is_left_morphic(ring, a)
    failing = [orbit(ring, "left", a) for a in np.flatnonzero(~orbit_is_N_ideal(ring))]
    # One call per distinct failing orbit, in order of first occurrence.
    distinct = list(dict.fromkeys(failing))
    assert (len(failing), len(distinct)) == (30, 7) and calls == distinct


@pytest.mark.parametrize("name", ["klein4_ring", "zn_ring(6)", "zn_ring(8)", "klein4_x_f2", "ext_f2_f2"])
def test_algorithm_I_tests_each_orbit_once(name, monkeypatch):
    # The quotient of the brute-force side of lemma1_equiv is built from the
    # Na that _algorithm_I has just accepted, without a second N-ideal test.
    ring = builtin(name)
    calls = []

    def counting(module, subset):
        calls.append(subset)
        return is_N_ideal(module, subset)

    monkeypatch.setattr(classify, "is_N_ideal", counting)
    monkeypatch.setattr(nmodules, "is_N_ideal", counting)
    for a in range(ring.order):
        classify._algorithm_I(ring, a)
    assert calls == [orbit(ring, "left", a) for a in range(ring.order)]



def test_morphic_vector_checks_the_batch_N_ideal_test(monkeypatch):
    # A batch test that wrongly rejects an orbit must surface through the
    # left morphic vector, as through ``is_left_morphic``.
    ring = build_M0(_zn_group(4))
    monkeypatch.setattr(nmodules, "_stage_scans", lambda module, in_l: None)
    with pytest.raises(InvariantError, match="batch N-ideal test disagrees at element"):
        check(ring, "prop2")


UNVALIDATED_BASES = DEFAULT_CORPUS_NAMES + ("m0_z4", "dproj_3", "dretract_4",
                                            "zn_ring(4) x zn_ring(6)")


@given(name=st.sampled_from(UNVALIDATED_BASES), data=st.data())
@settings(max_examples=80, deadline=None)
def test_unvalidated_rings_fall_back_to_per_orbit_test(name, data):
    # A copy with a few entries of ``mul`` overwritten, made with
    # dataclasses.replace (no validation, empty derived cache), is usually
    # not right distributive, so the r- and generator reductions do not hold.
    ring = ring_named(name)
    n = ring.order
    mul = [list(row) for row in ring.mul]
    for _ in range(data.draw(st.integers(1, 3))):
        x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        mul[x][y] = v
    ring = dataclasses.replace(ring, mul=tuple(map(tuple, mul)))
    assert orbit_is_N_ideal(ring).tolist() == reference_orbit_is_N_ideal(ring)
    if ring.one is not None:
        for a in range(n):
            v = is_left_morphic(ring, a)
            assert (v.status, v.witness, v.ideal_verdict) == reference_is_left_morphic(ring, a)


def test_trivial_ring():
    ring = validate_nearring([[0]], [[0]])
    assert is_N_ideal(regular_representation(ring), {0}) == IdealVerdict("N_ideal")
    assert orbit_is_N_ideal(ring).tolist() == [True]
    assert is_left_morphic(ring, 0) == MorphicVerdict("morphic", witness=0)
    assert structure_profile(ring).left_morphic


# ---------------------------------------------------------------------------
# the per-element profile scans, the structure witnesses read off single
# rows, and the theorem cells rewritten as gathers, against the loops they
# replace.  The loops read ``.tolist()`` copies of the tables, which keeps
# their Python-level indexing fast.


def reference_profile_fields(ring):
    """Per element: idempotent, central, nilpotency index and the first
    regular, unit-regular, left and right strongly regular witnesses."""
    n, mul = ring.order, ring.mul.tolist()
    unital = ring.one is not None
    inv = units(ring)[1] if unital else (None,) * n
    out = []
    for a in range(n):
        aa = mul[a][a]
        nilp, power = 0, a
        for k in range(1, n + 1):
            if power == 0:
                nilp = k
                break
            power = mul[power][a]
        reg = next((x for x in range(n) if mul[mul[a][x]][a] == a), None)
        ureg = next((u for u in range(n)
                     if inv[u] is not None and mul[mul[a][u]][a] == a), None)
        lsr = next((x for x in range(n) if mul[x][aa] == a), None)
        rsr = next((x for x in range(n) if mul[aa][x] == a), None)
        out.append((aa == a, all(mul[a][x] == mul[x][a] for x in range(n)), nilp,
                    reg is not None, reg, ureg is not None if unital else None, ureg,
                    lsr is not None, lsr, rsr is not None, rsr))
    return out


def profile_fields(ring):
    return [(p.is_idempotent, p.is_central, p.nilpotency_index, p.is_regular,
             p.regular_witness, p.is_unit_regular, p.unit_witness,
             p.is_left_strongly_regular, p.lsr_witness, p.is_right_strongly_regular,
             p.rsr_witness) for p in all_element_profiles(ring)]


def reference_row_witnesses(ring):
    """The IFP, idempotents-central and left-duo witnesses by the seed loops;
    a key is absent when the property holds (left duo: or is undecided)."""
    n, mul = ring.order, ring.mul.tolist()
    out = {}
    for a in range(n):
        for b in range(n):
            if mul[a][b] == 0:
                x = next((x for x in range(n) if mul[mul[a][x]][b] != 0), None)
                if x is not None:
                    out.setdefault("has_ifp", (a, x, b))
    for a in range(n):
        if mul[a][a] == a:
            x = next((x for x in range(n) if mul[a][x] != mul[x][a]), None)
            if x is not None:
                out["idempotents_central"] = (a, x)
                break
    if n <= IDEAL_ENUM_ORDER_CAP:
        out.update(reference_left_duo(ring))
    return out


def reference_left_duo(ring):
    """The left-duo witness and ideal by the seed's scan: the first ideal
    of the full enumeration that is not two-sided; empty when there is none."""
    mul = ring.mul.tolist()
    for ideal in enumerate_left_ideals(ring):
        if reference_is_ideal(ring, ideal) != "two_sided_ideal":
            return {"left_duo": next((l, x) for l in sorted(ideal) for x in range(ring.order)
                                     if mul[l][x] not in ideal),
                    "left_duo_ideal": tuple(sorted(ideal))}
    return {}


def reference_is_ideal(ring, subset):
    """``is_ideal`` with the seed's double loop for LN in L."""
    if not is_N_ideal(regular_representation(ring), subset):
        return "not_left_ideal"
    mul, in_l = ring.mul.tolist(), frozenset(subset)
    for l in sorted(in_l):
        for x in range(ring.order):
            if mul[l][x] not in in_l:
                return "left_ideal"
    return "two_sided_ideal"


ROW_KEYS = ("has_ifp", "idempotents_central", "left_duo", "left_duo_ideal")


def reference_lemma13(ring):
    n, mul = ring.order, ring.mul.tolist()
    count = 0
    for a in range(n):
        aa = mul[a][a]
        for x in range(n):
            if mul[x][aa] == a:
                count += 1
                if mul[mul[a][x]][a] != a:
                    return TheoremReport("lemma13", "fail", count, ((a, x), "a != axa"))
                if mul[a][x] != mul[x][a]:
                    return TheoremReport("lemma13", "fail", count, ((a, x), "ax != xa"))
    return TheoremReport("lemma13", "pass", count)


def reference_prop_ff_square(ring):
    n, mul = ring.order, ring.mul.tolist()
    count = 0
    for a in range(n):
        count += 1
        sq = mul[a][a]
        if not any(mul[mul[sq][x]][sq] == sq for x in range(n)):
            return TheoremReport("prop_ff_square", "fail", count, ((a,), "a^2 not regular"))
    return TheoremReport("prop_ff_square", "pass", count)


def reference_prop2(ring):
    tid, n, mul = "prop2", ring.order, ring.mul.tolist()
    unit_set, _ = units(ring)
    morphic = [a for a in range(n) if is_left_morphic(ring, a)]
    if not morphic or not unit_set:
        return TheoremReport(tid, "not_applicable",
                             hypothesis_note="no left morphic element / no unit")
    count = 0
    for a in morphic:
        for u in sorted(unit_set):
            count += 1
            if not is_left_morphic(ring, mul[a][u]):
                return TheoremReport(tid, "fail", count, ((a, u), "au not left morphic"))
            if not is_left_morphic(ring, mul[u][a]):
                return TheoremReport(tid, "fail", count, ((a, u), "ua not left morphic"))
    return TheoremReport(tid, "pass", count)


def reference_lemma_this_thm217(ring):
    tid = "lemma_this_thm217"
    n, one = ring.order, ring.one
    mul, add, neg = ring.mul.tolist(), ring.add.tolist(), ring.neg.tolist()
    anns, orbits = reference_annihilators(ring), reference_orbits(ring)
    count = 0
    for e in range(n):
        if mul[e][e] != e:
            continue
        ce = add[one][neg[e]]
        s1 = bool(is_left_morphic(ring, e))
        s2 = orbits[e] == anns[ce]
        s3 = all(mul[x][ce] == add[neg[mul[x][e]]][x] for x in range(n))
        s4 = (anns[e] & anns[ce] == frozenset({0})) and mul[e][ce] == 0
        s5 = all(mul[x][ce] == add[x][neg[mul[x][e]]] for x in range(n))
        s6 = orbits[ce] == anns[e] and mul[e][ce] == 0
        s7 = mul[ce][ce] == ce and bool(is_left_morphic(ring, ce))
        statements = (s1, s2, s3, s4, s5, s6, s7)
        count += 7
        if len(set(statements)) != 1:
            return TheoremReport(tid, "fail", count,
                                 ((e,), f"seven statements differ: {statements}"))
        if s1:
            if add[one][neg[ce]] != e:
                return TheoremReport(tid, "fail", count, ((e,), "1-(1-e) != e"))
            if orbits[ce] != anns[e]:
                return TheoremReport(tid, "fail", count, ((e,), "N(1-e) != (0:e)"))
    return TheoremReport(tid, "pass", count)


def reference_ccc_decomposition(ring):
    tid, n, add = "ccc_decomposition", ring.order, ring.add.tolist()
    anns, orbits = reference_annihilators(ring), reference_orbits(ring)
    principal = reference_orbit_is_N_ideal(ring)
    count = 0
    for a in range(n):
        count += 1
        if not principal[a]:
            return TheoremReport(tid, "fail", count, ((a,), "Na is not an N-ideal"))
        if anns[a] & orbits[a] != frozenset({0}):
            return TheoremReport(tid, "fail", count, ((a,), "(0:a) meets Na nontrivially"))
        if frozenset(add[x][y] for x in anns[a] for y in orbits[a]) != frozenset(range(n)):
            return TheoremReport(tid, "fail", count, ((a,), "(0:a) + Na != N"))
        if not is_left_morphic(ring, a):
            return TheoremReport(tid, "fail", count, ((a,), "a not left morphic"))
    return TheoremReport(tid, "pass", count)


def reference_ex20c_claim(ring):
    tid = "ex20c_claim"
    if not ring.extension:
        return TheoremReport(tid, "not_applicable",
                             hypothesis_note="not built as an R x M extension")
    base, module = ring.extension
    m_n, mul, bmul = module.carrier.order, ring.mul.tolist(), base.mul.tolist()
    unit_set, _ = units(ring)
    base_units, _ = units(base)
    mneg, act = module.carrier.neg.tolist(), module.action.tolist()
    count = 0
    for a in range(base.order):
        u = next((u for u in sorted(base_units) if bmul[bmul[a][u]][a] == a), None)
        if u is None:
            return TheoremReport(tid, "fail", count,
                                 ((a,), "base ring element has no unit inner inverse"))
        for m in range(m_n):
            count += 1
            elem = a * m_n + m
            w = u * m_n + mneg[act[u][m]]
            if w not in unit_set:
                return TheoremReport(tid, "fail", count, ((elem, w), "<u,-um> not a unit"))
            if mul[mul[elem][w]][elem] != elem:
                return TheoremReport(tid, "fail", count, ((elem, w), "a*<u,-um>*a != a"))
            if m != 0 and is_left_morphic(ring, elem):
                return TheoremReport(tid, "fail", count,
                                     ((elem,), "<a,m> with m != 0 is left morphic"))
    return TheoremReport(tid, "pass", count)


def reference_lemma1_equiv(ring):
    tid = "lemma1_equiv"
    if ring.order > 8:
        return TheoremReport(tid, "not_applicable",
                             hypothesis_note=f"order {ring.order} exceeds brute-force cap 8")
    count = 0
    for a in range(ring.order):
        count += 1
        if bool(is_left_morphic(ring, a)) != classify._algorithm_I(ring, a):
            return TheoremReport(tid, "fail", count,
                                 ((a,), "witness scan and isomorphism search disagree"))
    return TheoremReport(tid, "pass", count)


def reference_all_morphic(tid, ring, count=0):
    for a in range(ring.order):
        count += 1
        if not is_left_morphic(ring, a):
            return TheoremReport(tid, "fail", count, ((a,), "element not left morphic"))
    return TheoremReport(tid, "pass", count)


def reference_lemma_ffff(ring):
    n, mul = ring.order, ring.mul.tolist()
    unit_set, _ = units(ring)
    count = 0
    for a in range(n):
        count += 1
        if not any(u in unit_set and mul[mul[a][u]][a] == a for u in range(n)):
            return TheoremReport("lemma_ffff", "fail", count,
                                 ((a,), "element not unit-regular"))
    return TheoremReport("lemma_ffff", "pass", count)


def reference_prop_cccxi(ring):
    tid = "prop_cccxi"
    conds = [("addition not commutative", ring.flags.abelian_add),
             ("not left distributive", ring.flags.left_distributive),
             ("multiplication not commutative", ring.flags.commutative_mul)]
    count = 0
    for clause, ok in conds:
        count += 1
        if not ok:
            return TheoremReport(tid, "fail", count, ((), clause))
    return reference_all_morphic(tid, ring, count)


def reference_prop64(ring):
    tid = "prop64"
    unit_set, _ = units(ring)
    anns, orbits = reference_annihilators(ring), reference_orbits(ring)
    full = frozenset(range(ring.order))
    morphic = [a for a in range(ring.order) if is_left_morphic(ring, a)]
    if not morphic:
        return TheoremReport(tid, "not_applicable", hypothesis_note="no left morphic element")
    count = 0
    for a in morphic:
        count += 1
        conds = (anns[a] == frozenset({0}), orbits[a] == full, a in unit_set)
        if len(set(conds)) != 1:
            return TheoremReport(tid, "fail", count,
                                 ((a,), f"conditions not equivalent: {conds}"))
    return TheoremReport(tid, "pass", count)


# The scans after each cell's hypothesis gate; the oracles above have no gate
# beyond unity (and lemma1_equiv's order cap, which ``ungated`` leaves shut).
CELL_ORACLES = {
    "lemma1_equiv": reference_lemma1_equiv,
    "wsw_morphic": lambda ring: reference_all_morphic("wsw_morphic", ring),
    "lemma_ffff": reference_lemma_ffff,
    "prop_ff_morphic": lambda ring: reference_all_morphic("prop_ff_morphic", ring),
    "prop_cccxi": reference_prop_cccxi,
    "prop64": reference_prop64,
    "ex20c_claim": reference_ex20c_claim,
    "lemma13": reference_lemma13,
    "prop_ff_square": reference_prop_ff_square,
    "prop2": reference_prop2,
    "lemma_this_thm217": reference_lemma_this_thm217,
    "ccc_decomposition": reference_ccc_decomposition,
}


def open_convention_gates():
    """Clear the convention and left-strongly-regular gates in the catalog's
    gate column; the unity gate stays."""
    shut = (theorems._convention_gate, theorems._lsr_gate)
    return mock.patch.dict(theorems._CATALOG, {
        tid: (description, None, cell)
        for tid, (description, gate, cell) in theorems._CATALOG.items() if gate in shut})


@contextmanager
def ungated():
    """Open the hypothesis gates of the cells in ``CELL_ORACLES`` (unity
    aside), so their scans run, and can fail, on every ring."""
    profile = types.SimpleNamespace(regular=True, subcommutative=True, boolean=True,
                                    weakly_divisible=True)
    with open_convention_gates(), \
            mock.patch.object(theorems, "structure_profile", return_value=profile):
        yield


# The isomorphism search behind lemma1_equiv assumes a near-ring.  On a
# scrambled table it may raise one of these (by type, message prefix); the
# cell must then raise the same.
SEARCH_ERRORS = {InvariantError: "quotient action depends on coset representative"}


def assert_lemma1_equiv_agrees(ring):
    try:
        expected = reference_lemma1_equiv(ring)
    except tuple(SEARCH_ERRORS) as exc:
        assert str(exc).startswith(SEARCH_ERRORS[type(exc)]), exc
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            check(ring, "lemma1_equiv")
    else:
        assert check(ring, "lemma1_equiv") == expected


def assert_rewritten_scans_agree(ring):
    assert profile_fields(ring) == reference_profile_fields(ring)
    witnesses = structure_profile(ring).witnesses
    assert {k: v for k, v in witnesses.items() if k in ROW_KEYS} == \
        reference_row_witnesses(ring)
    with ungated():
        for tid, oracle in CELL_ORACLES.items():
            if ring.one is None and tid not in ("lemma13", "prop_ff_square"):
                continue
            if tid == "lemma1_equiv":
                assert_lemma1_equiv_agrees(ring)
            else:
                assert check(ring, tid) == oracle(ring), tid


def scrambled(name, data):
    """A copy of a family member with one to three ``mul`` entries
    overwritten, made with dataclasses.replace: no validation, empty cache."""
    ring = ring_named(name)
    n = ring.order
    mul = ring.mul.tolist()
    for _ in range(data.draw(st.integers(1, 3))):
        x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        mul[x][y] = v
    return dataclasses.replace(ring, mul=mul)


@ring_and_seed
@settings(max_examples=60, deadline=None)
def test_rewritten_scans_match_the_loops(name, seed):
    assert_rewritten_scans_agree(relabelled(ring_named(name), seed))


@given(name=st.sampled_from(UNVALIDATED_BASES), data=st.data())
@settings(max_examples=80, deadline=None)
def test_rewritten_scans_match_the_loops_unvalidated(name, data):
    assert_rewritten_scans_agree(scrambled(name, data))


def assert_profile_verdicts_are_is_left_morphics(ring):
    """``all_element_profiles`` builds every morphic verdict from the
    whole-ring data; ``is_left_morphic`` on a copy with an empty cache is
    its oracle, element by element."""
    if ring.one is None:
        return
    fresh = dataclasses.replace(ring)
    expected = [is_left_morphic(fresh, a) for a in range(ring.order)]
    assert [p.morphic for p in all_element_profiles(ring)] == expected


@ring_and_seed
@settings(max_examples=40, deadline=None)
def test_profile_morphic_verdicts_match_is_left_morphic(name, seed):
    assert_profile_verdicts_are_is_left_morphics(relabelled(ring_named(name), seed))


@given(name=st.sampled_from(UNVALIDATED_BASES), data=st.data())
@settings(max_examples=60, deadline=None)
def test_profile_morphic_verdicts_match_is_left_morphic_unvalidated(name, data):
    assert_profile_verdicts_are_is_left_morphics(scrambled(name, data))


# ---------------------------------------------------------------------------
# the class verdict read from four element columns, against the verdict of
# the whole structure profile


VERDICT_RINGS = {name: partial(ring_named, name) for name in RING_NAMES}
# regular but not left strongly regular, without unity: the one class the
# families above do not reach
VERDICT_RINGS["m0_z3 x dproj_3"] = lru_cache(maxsize=None)(
    lambda: build_product((builtin("m0_z3"), dihedral_projection(3))))


def assert_column_verdict_is_the_profiles(ring):
    """``class_verdict`` reads the "lsr", "regular", "unit_regular" and
    "morphic" columns; ``structure_profile`` on a copy with an empty cache
    is its oracle."""
    verdict = class_verdict(ring)
    assert verdict == structure_profile(dataclasses.replace(ring)).verdict()
    return verdict


def test_column_verdict_on_the_default_corpus():
    for _, ring in default_corpus():
        assert_column_verdict_is_the_profiles(dataclasses.replace(ring))


def test_column_verdict_reaches_every_class_with_and_without_unity():
    reached = {(assert_column_verdict_is_the_profiles(make()), make().one is not None)
               for make in VERDICT_RINGS.values()}
    assert {verdict for verdict, _ in reached} == {
        "left strongly regular", "left morphic regular", "unit-regular but not left morphic",
        "regular", "not regular"}
    # without unity the chain stops at left strongly regular, regular or neither
    assert {verdict for verdict, unital in reached if not unital} == {
        "left strongly regular", "regular", "not regular"}


@given(name=st.sampled_from(tuple(VERDICT_RINGS)),
       seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1)))
@settings(max_examples=40, deadline=None)
def test_column_verdict_matches_the_profile(name, seed):
    assert_column_verdict_is_the_profiles(relabelled(VERDICT_RINGS[name](), seed))


@given(name=st.sampled_from(UNVALIDATED_BASES), data=st.data())
@settings(max_examples=60, deadline=None)
def test_column_verdict_matches_the_profile_unvalidated(name, data):
    assert_column_verdict_is_the_profiles(scrambled(name, data))


# ---------------------------------------------------------------------------
# the nilpotency column, which stops once the vector of powers repeats,
# against the loop that runs all n steps


def reference_nilpotency(ring):
    """Per a, the least k <= n with a^k = 0, else 0: all n steps, each a
    gather of (a^k)*a over every a."""
    n = ring.order
    by_column = ring.mul.T.ravel()
    column = np.arange(n) * n
    nilpotency = np.zeros(n, dtype=np.int64)
    power = np.arange(n)
    for k in range(1, n + 1):
        nilpotency[(power == 0) & (nilpotency == 0)] = k
        power = by_column[column + power]
    return nilpotency


def stops_without_a_new_zero(ring):
    """A mutant: stops when the nilpotency vector is the same at two
    consecutive steps, that is at the first step where no a^k is 0 for the
    first time."""
    n = ring.order
    by_column = ring.mul.T.ravel()
    column = np.arange(n) * n
    nilpotency = np.zeros(n, dtype=np.int64)
    power = np.arange(n)
    for k in range(1, n + 1):
        before = nilpotency.copy()
        nilpotency[(power == 0) & (nilpotency == 0)] = k
        if k > 1 and np.array_equal(before, nilpotency):
            break
        power = by_column[column + power]
    return nilpotency


def assert_nilpotency_is_the_loops(ring, nilpotency=classify._nilpotency):
    assert nilpotency(ring).tolist() == reference_nilpotency(ring).tolist()


# Z_p: the vectors repeat with period p - 1, so none repeats before the cap
# and the loop runs all n steps; Z_{2^k}: the nilpotent elements take up to
# k steps before the units' cycle shows
NILPOTENCY_RINGS = (tuple(f"zn_ring({p})" for p in (2, 3, 31, 61))
                    + tuple(f"zn_ring({2 ** k})" for k in range(2, 7))
                    + ("zn_ring(8) x zn_ring(8)", "zn_ring(4) x zn_ring(6)", "m0_z4"))


@pytest.mark.parametrize("name", NILPOTENCY_RINGS)
def test_nilpotency_matches_the_loop_on_fixed_rings(name):
    assert_nilpotency_is_the_loops(ring_named(name))


@ring_and_seed
@settings(max_examples=40, deadline=None)
def test_nilpotency_matches_the_loop(name, seed):
    assert_nilpotency_is_the_loops(relabelled(ring_named(name), seed))


@given(name=st.sampled_from(UNVALIDATED_BASES), data=st.data())
@settings(max_examples=80, deadline=None)
def test_nilpotency_matches_the_loop_unvalidated(name, data):
    # 0*a = 0 may fail here, so a^k can leave 0 again
    assert_nilpotency_is_the_loops(scrambled(name, data))


def test_nilpotency_inputs_catch_a_stop_without_a_new_zero():
    # in Z_64 no element is first nilpotent at step 4 (a^4 = 0 iff 4 | a,
    # as for a^3), but 2 is at step 6
    with pytest.raises(AssertionError):
        assert_nilpotency_is_the_loops(ring_named("zn_ring(64)"), stops_without_a_new_zero)


def reference_flag_scan(ring):
    """The flags and their first witnesses, by exhaustive scans: x*(y+z) =
    x*y + x*z over (x, y, z), x+y = y+x, x*0 = 0 and xy = yx."""
    add, mul = ring.add, ring.mul

    def first(mask):
        hits = np.argwhere(mask)
        return tuple(hits[0].tolist()) if len(hits) else None

    witnesses = {
        "left_distributive": first(mul[:, add] != add[mul[:, :, None], mul[:, None, :]]),
        "abelian_add": first(add != add.T),
        "zero_symmetric": first(mul[:, 0] != 0),
        "commutative_mul": first(mul != mul.T),
    }
    flags = NearRingFlags(unital=ring.one is not None,
                          **{flag: w is None for flag, w in witnesses.items()})
    return flags, tuple((flag, w) for flag, w in witnesses.items() if w is not None)


@given(name=st.sampled_from(UNVALIDATED_BASES), data=st.data())
@settings(max_examples=60, deadline=None)
def test_flags_of_scrambled_copies_come_from_their_tables(name, data):
    ring = scrambled(name, data)
    assert (ring.flags, ring.flag_witnesses) == reference_flag_scan(ring)


def with_entry(ring, x, y, v):
    mul = ring.mul.tolist()
    mul[x][y] = v
    return dataclasses.replace(ring, mul=mul)


def f2_cube_ring():
    """Commutative bilinear product on klein4_x_f2's addition (XOR on three
    bits): e_i*e_i = e_i, e0*e1 = 0, e0*e2 = 2, e1*e2 = 6 with e_i = 1 << i,
    and ``one`` = e0 + e1 = 3, its identity.  Boolean, a ring by its flags,
    but not associative, so some element is not left morphic."""
    basis = {(0, 0): 1, (1, 1): 2, (2, 2): 4, (0, 1): 0, (0, 2): 2, (1, 2): 6}
    mul = [[0] * 8 for _ in range(8)]
    for x, y in itertools.product(range(8), repeat=2):
        for i, j in itertools.product(range(3), repeat=2):
            if x >> i & 1 and y >> j & 1:
                mul[x][y] ^= basis[min(i, j), max(i, j)]
    return dataclasses.replace(builtin("klein4_x_f2"), mul=mul, one=3)


def test_lemma1_equiv_without_zero_in_the_annihilator():
    # 0*1 = 1, so (0:1) lacks 0: no subgroup, so no isomorphism to search for
    ring = with_entry(builtin("klein4_ring"), 0, 1, 1)
    assert check(ring, "lemma1_equiv") == TheoremReport("lemma1_equiv", "pass", 4)


# Inputs on which a cell's scan fails, so the agreement above is seen to
# cover counterexamples and clauses, not only passes.
FAILING_CELLS = [
    (lambda: ring_named("m0_z4"), "lemma13", "ax != xa"),
    (lambda: builtin("zn_ring(8)"), "prop_ff_square", "a^2 not regular"),
    (lambda: with_entry(builtin("klein4_ring"), 3, 3, 2), "prop2", "au not left morphic"),
    (lambda: with_entry(builtin("zn_ring(4)"), 1, 3, 0), "prop2", "ua not left morphic"),
    (lambda: builtin("ext_f2_f2"), "lemma_this_thm217",
     "seven statements differ: (False, False, False, True, False, False, False)"),
    (lambda: builtin("zn_ring(4)"), "ccc_decomposition", None),
    (lambda: with_entry(builtin("zn_ring(6)"), 0, 0, 1), "ccc_decomposition",
     "Na is not an N-ideal"),
    (lambda: with_entry(builtin("zn_ring(6)"), 3, 2, 2), "ccc_decomposition", "(0:a) + Na != N"),
    (lambda: with_entry(builtin("zn_ring(2)"), 0, 1, 1), "ccc_decomposition", "a not left morphic"),
    (lambda: with_entry(builtin("zn_ring(2)"), 0, 1, 1), "lemma1_equiv",
     "witness scan and isomorphism search disagree"),
    # fails at element 0; the search would raise at element 3
    (lambda: with_entry(with_entry(with_entry(builtin("zn_ring(4)"), 1, 3, 0), 1, 1, 3), 0, 3, 3),
     "lemma1_equiv", "witness scan and isomorphism search disagree"),
    (lambda: builtin("m0_z3"), "wsw_morphic", "element not left morphic"),
    (lambda: builtin("m0_z3"), "prop_ff_morphic", "element not left morphic"),
    (lambda: builtin("zn_ring(8)"), "lemma_ffff", "element not unit-regular"),
    (lambda: builtin("m0_z3"), "prop_cccxi", "not left distributive"),
    (lambda: builtin("mat2_f2"), "prop_cccxi", "multiplication not commutative"),
    (lambda: f2_cube_ring(), "prop_cccxi", "element not left morphic"),
    (lambda: with_entry(builtin("mat2_f2"), 7, 14, 1), "prop64",
     "conditions not equivalent: (True, True, False)"),
    (lambda: with_entry(builtin("ext_f2_f2"), 0, 0, 1), "ex20c_claim", "a*<u,-um>*a != a"),
    (lambda: with_entry(builtin("ext_f2_f2"), 2, 2, 0), "ex20c_claim", "<u,-um> not a unit"),
]


@pytest.mark.parametrize("make, tid, clause", FAILING_CELLS)
def test_cell_oracles_see_failures(make, tid, clause):
    ring = make()
    with ungated():
        report = check(ring, tid)
        assert report == CELL_ORACLES[tid](ring)
    assert report.status == "fail"
    if clause is not None:
        assert report.counterexample[1] == clause


def reference_thm62(ring):
    """``thm62`` after its gate, by the loop over elements it replaced."""
    tid = "thm62"
    mul, add = ring.mul, ring.add
    unit_set, _ = units(ring)
    profiles = all_element_profiles(ring)
    count = 0
    for a in range(ring.order):
        count += 1
        p = profiles[a]
        if not p.is_unit_regular:
            return TheoremReport(tid, "fail", count, ((a,), "element not unit-regular"))
        x = p.regular_witness
        b = p.morphic.witness
        u = int(add[mul[mul[x, a], x], b])  # u := xax + b
        if u not in unit_set:
            return TheoremReport(tid, "fail", count, ((a, x, b), "u = xax+b is not a unit"))
        if mul[mul[a, u], a] != a:
            return TheoremReport(tid, "fail", count, ((a, x, b), "aua != a for u = xax+b"))
    return TheoremReport(tid, "pass", count)


def meets_thm62(ring):
    """The hypothesis of ``thm62``: the convention, regular and left morphic."""
    if theorems._convention_gate(ring) is not None:
        return False
    sp = structure_profile(ring)
    return bool(sp.left_morphic and sp.regular)


# The members of the family that meet the hypothesis of thm62.
THM62_FAMILY = ("klein4_ring", "zn_ring(2)", "zn_ring(6)", "mat2_f2", "klein4_x_f2",
                "klein4_ring x mat2_f2", "mat2_f2 x zn_ring(2)")


def test_thm62_family_is_every_member_that_meets_the_hypothesis():
    assert tuple(name for name in RING_NAMES if meets_thm62(ring_named(name))) == THM62_FAMILY


@given(name=st.sampled_from(THM62_FAMILY),
       seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1)))
@settings(max_examples=40, deadline=None)
def test_thm62_matches_the_loop(name, seed):
    ring = relabelled(ring_named(name), seed)
    assert meets_thm62(ring)
    assert check(ring, "thm62") == reference_thm62(ring)


@given(name=st.sampled_from(THM62_FAMILY), data=st.data())
@settings(max_examples=100, deadline=None)
def test_thm62_matches_the_loop_on_scrambled_copies(name, data):
    ring = scrambled(name, data)
    if meets_thm62(ring):
        assert check(ring, "thm62") == reference_thm62(ring)
    else:
        assert check(ring, "thm62").status == "not_applicable"


@given(name=st.sampled_from(THM62_FAMILY), data=st.data())
@settings(max_examples=100, deadline=None)
def test_thm62_matches_the_loop_on_other_witnesses(name, data):
    # Valid near-rings pass, so the failing clauses are reached by handing
    # loop and table the same other witnesses: random regular and morphic
    # witness columns, and elements whose unit-regular witness is dropped.
    ring = dataclasses.replace(ring_named(name), name="copy")  # empty cache
    n = ring.order
    witness = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(np.array)
    dropped = list(data.draw(st.sets(st.integers(0, n - 1), max_size=1), label="dropped"))
    unit_regular = classify._COLUMNS["unit_regular"]
    columns = {"unit_regular": lambda ring: np.where(np.isin(np.arange(n), dropped), -1,
                                                     unit_regular(ring))}
    for column in ("regular", "morphic_witness"):
        if data.draw(st.booleans(), label=f"replace {column}"):
            columns[column] = lambda ring, values=data.draw(witness, label=column): values
    with mock.patch.dict(classify._COLUMNS, columns):
        assert meets_thm62(ring)
        assert check(ring, "thm62") == reference_thm62(ring)


# One witness of mat2_f2 changed, and the first failure the scan then reports.
THM62_FAILURES = [
    ("unit_regular", 3, -1, ((3,), "element not unit-regular")),
    ("morphic_witness", 0, 0, ((0, 0, 0), "u = xax+b is not a unit")),
    ("morphic_witness", 1, 7, ((1, 1, 7), "aua != a for u = xax+b")),
]


@pytest.mark.parametrize("column, a, value, counterexample", THM62_FAILURES)
def test_thm62_other_witnesses_reach_each_clause(column, a, value, counterexample):
    ring = dataclasses.replace(builtin("mat2_f2"), name="copy")
    build = classify._COLUMNS[column]

    def changed(ring):
        values = build(ring)
        values[a] = value
        return values

    with mock.patch.dict(classify._COLUMNS, {column: changed}):
        report = check(ring, "thm62")
        assert report == reference_thm62(ring)
    assert report.counterexample == counterexample


# The cells that compare three structure flags, by the seed's formulas.
EQUIVALENCE_CELLS = {
    "lemma_hdt": lambda sp: (sp.left_strongly_regular, sp.regular and sp.reduced,
                             sp.regular and sp.idempotents_central),
    "prop226": lambda sp: (sp.reduced and bool(sp.left_morphic), sp.left_strongly_regular,
                           sp.regular and bool(sp.left_duo)),
    "prop_tttt": lambda sp: (sp.left_strongly_regular, bool(sp.left_morphic) and sp.regular,
                             bool(sp.unit_regular)),
}


@pytest.mark.parametrize("tid", sorted(EQUIVALENCE_CELLS))
def test_equivalence_cells_on_every_flag_combination(tid):
    ring = builtin("zn_ring(2)")
    names = ("left_strongly_regular", "regular", "reduced", "idempotents_central")
    optional = ("left_morphic", "left_duo", "unit_regular")
    for values in itertools.product((True, False), repeat=len(names)):
        for maybe in itertools.product((True, False, None), repeat=len(optional)):
            profile = types.SimpleNamespace(has_ifp=True, **dict(zip(names, values)),
                                            **dict(zip(optional, maybe)))
            with open_convention_gates(), \
                    mock.patch.object(theorems, "structure_profile", return_value=profile):
                report = check(ring, tid)
            conds = EQUIVALENCE_CELLS[tid](profile)
            expected = (TheoremReport(tid, "pass", 3) if len(set(conds)) == 1 else
                        TheoremReport(tid, "fail", 3,
                                      ((), f"conditions not equivalent: {conds}")))
            assert report == expected, profile


# Rings with failing principal ideals of one, two and three sizes (mat2_f2,
# M0(Z4), mat2_f2 x Z2, Klein4 x mat2_f2 of order 64) and left duo ones.
LEFT_DUO_FAMILY = ("mat2_f2", "m0_z3", "m0_z4", "mat2_f2 x zn_ring(2)",
                   "klein4_ring x mat2_f2", "dproj_3", "dproj_4", "dretract_6",
                   "zn_ring(4) x zn_ring(6)", "klein4_ring")


@given(name=st.sampled_from(LEFT_DUO_FAMILY),
       seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1)))
@settings(max_examples=40, deadline=None)
def test_left_duo_from_principal_ideals_matches_enumeration(name, seed):
    ring = relabelled(ring_named(name), seed)
    sp = structure_profile(ring)
    ref = reference_left_duo(ring)
    assert sp.left_duo == (not ref)
    assert {k: v for k, v in sp.witnesses.items() if k.startswith("left_duo")} == ref


def test_left_duo_family_has_rings_that_are_not_left_duo():
    verdicts = [structure_profile(ring_named(name)).left_duo for name in LEFT_DUO_FAMILY]
    assert verdicts.count(False) == 5 and verdicts.count(True) == 5


# Principal ideals from the seed sets N0*a: zero-symmetric rings with and
# without unity, non-zero-symmetric extensions (where N0*a is smaller than
# Na), and zero multiplication, where N0*a = {0} misses a.
PRINCIPAL_FAMILY = ("m0_z3", "m0_z4", "dproj_3", "dproj_4", "dretract_3", "dretract_6",
                    "mat2_f2 x zn_ring(2)", "zn_ring(4) x zn_ring(6)", "ext_f2_f2",
                    "ext_mat2f2_f2sq", "zero_z2xz4", "zero_d3")


@given(name=st.sampled_from(PRINCIPAL_FAMILY),
       seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_principal_ideals_match_the_per_element_closure(name, seed, data):
    # Every third example overwrites one to three products in a copy made
    # without validation, which usually breaks the laws the seed sets need.
    ring = relabelled(ring_named(name), seed)
    n = ring.order
    if data.draw(st.integers(0, 2)) == 0:
        mul = ring.mul.tolist()
        for _ in range(data.draw(st.integers(1, 3))):
            x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
            mul[x][y] = v
        ring = dataclasses.replace(ring, mul=mul)
    table = nmodules.principal_ideals(ring)
    for a in range(n):
        assert table[a].tolist() == nmodules._ideal_closure(ring, np.arange(n) == a).tolist(), a


def test_principal_ideals_family_reaches_every_route():
    # Zero-symmetric with Na an N-ideal, one closure per seed set, and a
    # closure of one element, each met somewhere in the family.
    routes = set()
    for name in PRINCIPAL_FAMILY:
        ring = ring_named(name)
        idx = np.arange(ring.order)
        seeds = np.zeros((ring.order, ring.order), dtype=bool)
        seeds[idx[None, :], ring.mul[ring.mul[:, 0] == 0]] = True
        for a in idx:
            if not seeds[a, a]:
                routes.add("own")
            elif not ring.mul[:, 0].any() and orbit_is_N_ideal(ring)[a]:
                routes.add("orbit")
            else:
                routes.add("seed set")
    assert routes == {"own", "orbit", "seed set"}


SHARED_VERDICT_FAMILY = ("m0_z3", "m0_z4", "ext_f2_f2", "ext_mat2f2_f2sq",
                         "zn_ring(2) x m0_z3", "m0_z3 x zn_ring(6)")


@given(name=st.sampled_from(SHARED_VERDICT_FAMILY),
       seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1)))
@settings(max_examples=30, deadline=None)
def test_shared_orbit_verdicts_match_per_element_test(name, seed):
    ring = relabelled(ring_named(name), seed)
    rep = regular_representation(ring)
    morphic = classify.element_column(ring, "morphic")
    for a in range(ring.order):
        expected = is_N_ideal(rep, orbit(ring, "left", a))
        verdict = is_left_morphic(ring, a)
        assert verdict.ideal_verdict == (None if expected else expected), a
        assert bool(verdict) == morphic[a], a


def test_morphic_vector_runs_is_N_ideal_once_per_distinct_failing_orbit(monkeypatch):
    ring = build_M0(_zn_group(4))
    calls = []
    monkeypatch.setattr(nmodules, "_stage_scans", counting_stage_scans(calls))
    classify.element_column(ring, "morphic")
    failing = [orbit(ring, "left", a) for a in np.flatnonzero(~orbit_is_N_ideal(ring))]
    assert calls == list(dict.fromkeys(failing))
    for a in range(ring.order):  # the per-element verdicts reuse them
        is_left_morphic(ring, a)
    assert len(calls) == 7


def test_law_broken_copy_scans_each_rejected_orbit_once(monkeypatch):
    # On a copy that breaks the laws, orbit_is_N_ideal's per-orbit fallback
    # runs the stage scans once on each distinct orbit, accepted or
    # rejected, and keeps the verdict of each orbit it rejects; the morphic
    # column and the per-element verdicts reuse it.  Every binding of
    # _stage_scans is counted.
    ring = build_M0(_zn_group(4))
    mul = ring.mul.copy()
    mul[5, 7] = 3
    ring = dataclasses.replace(ring, mul=mul)
    calls = []
    counting = counting_stage_scans(calls)
    monkeypatch.setattr(nmodules, "_stage_scans", counting)
    monkeypatch.setattr(classify, "_stage_scans", counting, raising=False)
    column = classify.element_column(ring, "morphic")
    verdicts = [is_left_morphic(ring, a) for a in range(ring.order)]
    rejected = np.flatnonzero(~orbit_is_N_ideal(ring))
    assert len(set(orbit(ring, "left", a) for a in rejected)) == 10
    distinct = set(orbit(ring, "left", a) for a in range(ring.order))
    assert len(calls) == len(set(calls)) == len(distinct) == 15
    assert set(calls) == distinct
    assert [bool(v) for v in verdicts] == column.tolist()
    rep = regular_representation(ring)
    for a in rejected:
        assert verdicts[a].ideal_verdict == is_N_ideal(rep, orbit(ring, "left", a))


def random_greedy_generators(add, members, rng):
    """A generating set of the subgroup ``members`` of the group with the
    addition table ``add``, greedy over a random order of the members, not
    ascending, so that a first witness that is not a generator can be told
    apart."""
    add, rest = add.tolist(), [x for x in members.tolist() if x]
    rng.shuffle(rest)
    reached, gens = {0}, []
    for x in rest:
        if x not in reached:
            gens.append(x)
            reached = subgroup(add, reached | {x})
    return np.array(gens, dtype=np.int64)


def with_other_generators(ring, rng):
    """A copy of ``ring`` on a copy of its group whose stored generating set
    of (N,+) is ``random_greedy_generators``."""
    group = dataclasses.replace(ring.group)
    group_generators.keep(group, random_greedy_generators(ring.add, np.arange(ring.order),
                                                          rng).tolist())
    return dataclasses.replace(ring, group=group)


STAGE_SCAN_SUBSETS = ("random", "closed under +", "left orbit", "sum of two left orbits")


# Normality can fail only where (N,+) is not abelian, so half the draws
# take one of these.
NON_ABELIAN = ("dproj_3", "dproj_4", "dretract_3", "dretract_4", "dretract_6", "zero_d3")


@given(name=st.one_of(st.sampled_from(RING_NAMES), st.sampled_from(NON_ABELIAN)),
       seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_stage_scans_match_is_N_ideal(name, seed, data):
    # The stage scans return is_N_ideal's verdict wherever it rejects and
    # None exactly where it accepts; both match the element-by-element
    # oracle, also over generating sets of (N,+) and of L that are not the
    # ascending greedy ones (over those, the first failing l of a row is
    # always a generator).  Scrambled copies (built without validation)
    # often change row 0, the only row where r = 0 can fail.
    ring = relabelled(ring_named(name), seed)
    n = ring.order
    rng = random.Random(seed)
    if data.draw(st.booleans()):
        for _ in range(data.draw(st.integers(1, 3))):
            x, y, v = (data.draw(st.one_of(st.just(0), st.integers(0, n - 1))),
                       data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
            ring = with_entry(ring, x, y, v)
    add = ring.add.tolist()
    kind = data.draw(st.sampled_from(STAGE_SCAN_SUBSETS))
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if kind == "random":
        subset = set(data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
    elif kind == "closed under +":
        subset = set(subgroup(add, data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                                           max_size=2))))
    else:
        subset = set(orbit(ring, "left", a))
        if kind == "sum of two left orbits":
            subset = {add[x][y] for x in subset for y in orbit(ring, "left", b)}
    zero = data.draw(st.sampled_from(("as drawn", "with 0", "without 0")))
    if zero == "with 0":
        subset.add(0)
    elif zero == "without 0":
        subset.discard(0)
    rep = regular_representation(ring)
    expected, in_l = reference_is_N_ideal(rep, subset), np.isin(np.arange(n), list(subset))
    other = regular_representation(with_other_generators(ring, rng))
    shuffled = partial(random_greedy_generators, rng=rng)
    for module, gens_l in ((rep, nmodules._subgroup_generators), (other, shuffled)):
        with mock.patch.object(nmodules, "_subgroup_generators", gens_l):
            verdict = is_N_ideal(module, subset)
            assert (verdict.kind, verdict.witness) == expected
            assert nmodules._stage_scans(module, in_l) == (None if verdict else verdict)
    if kind == "left orbit" and not orbit_is_N_ideal(ring)[a]:
        # The morphic path reads the verdict that the orbit pass stored for
        # the class of a; on a law-keeping copy, the pass refuses a rejected
        # orbit on which the scans find nothing.
        assert nmodules._orbit_verdict(ring, a) == is_N_ideal(rep, orbit(ring, "left", a))
        if core.laws_hold(ring):
            fresh = dataclasses.replace(ring)
            with mock.patch.object(nmodules, "_stage_scans", lambda module, in_l: None), \
                    pytest.raises(InvariantError, match="batch N-ideal test disagrees"):
                orbit_is_N_ideal(fresh)


def test_stage_scans_read_the_normality_witness_over_L():
    # In D6, L = {0, r^3, s, sr^3} (indices 0, 3, 6, 9) is not normal:
    # conjugation by r fixes r^3 and moves s and sr^3.  Over the generating
    # set [9, 3] of L, the first failing generator of row x = r is sr^3,
    # but the first witness is (r, s).
    rep = regular_representation(ring_named("dretract_6"))
    assert reference_is_N_ideal(rep, {0, 3, 6, 9}) == ("not_normal", (1, 6))
    with mock.patch.object(nmodules, "_subgroup_generators",
                           lambda add, members: np.array([9, 3])):
        assert is_N_ideal(rep, {0, 3, 6, 9}) == IdealVerdict("not_normal", (1, 6))


# ---------------------------------------------------------------------------
# the shared rules: one law predicate, one additive closure


def reference_laws_hold(add, mul):
    """Right distributivity and associativity of ``mul``, over all triples."""
    add, mul = np.asarray(add), np.asarray(mul)
    r, s, m = np.ix_(*[np.arange(len(add))] * 3)
    return bool((mul[add[r, s], m] == add[mul[r, m], mul[s, m]]).all()
                and (mul[mul[r, s], m] == mul[r, mul[s, m]]).all())


# Z2 with 1*0 = 1 and every other product 0: right distributive, since
# x -> x*0 is the identity and x -> x*1 is zero, but not associative:
# (1*0)*1 = 0 while 1*(0*1) = 1.
Z2_ADD, Z2_NOT_ASSOCIATIVE = np.array([[0, 1], [1, 0]]), np.array([[0, 0], [1, 0]])


def test_laws_hold_checks_associativity_too():
    gens = _generators(Z2_ADD)
    assert _holds(_additive(Z2_ADD, Z2_NOT_ASSOCIATIVE, Z2_ADD), gens)
    assert not reference_laws_hold(Z2_ADD, Z2_NOT_ASSOCIATIVE)
    assert not _laws_hold(Z2_ADD, Z2_NOT_ASSOCIATIVE, gens)


@given(name=st.one_of(st.just("z2_not_associative"), st.sampled_from(RING_NAMES)),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_laws_hold_matches_the_exhaustive_scan(name, data):
    if name == "z2_not_associative":
        add, mul, gens = Z2_ADD, Z2_NOT_ASSOCIATIVE.copy(), _generators(Z2_ADD)
        if data.draw(st.booleans()):
            mul[data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))] ^= 1
    else:
        ring = ring_named(name) if data.draw(st.booleans()) else scrambled(name, data)
        add, mul, gens = ring.add, ring.mul, group_generators(ring.group)
    assert _laws_hold(add, mul, gens) == reference_laws_hold(add, mul)


def reference_generated_submodule(module, g):
    """``generated_submodule`` before it shared ``core._extend_closure``:
    a semi-naive loop over the action, +, and negation."""
    madd, mneg, act = module.carrier.add, module.carrier.neg, module.action
    seen = np.zeros(module.carrier.order, dtype=bool)
    frontier = np.array([0, g])
    seen[frontier] = True
    while len(frontier):  # semi-naive: only images of new elements can be new
        members = np.flatnonzero(seen)
        new = np.zeros_like(seen)
        new[act[:, frontier]] = True
        new[madd[frontier[:, None], members]] = True
        new[madd[members[:, None], frontier]] = True
        new[mneg[frontier]] = True
        new &= ~seen
        seen |= new
        frontier = np.flatnonzero(new)
    return frozenset(np.flatnonzero(seen).tolist())


def assert_closures_agree(module):
    m_n = module.carrier.order
    closures = [reference_generated_submodule(module, g) for g in range(m_n)]
    assert [generated_submodule(module, g) for g in range(m_n)] == closures
    assert _cyclic_generator(module) == next(
        (g for g in range(m_n) if len(closures[g]) == m_n), None)


def test_generated_submodule_takes_the_images_of_zero():
    # With 1*0 = 3 the action does not fix 0, so {0} is not closed under it;
    # r*3 is 0 or 3 for every r.
    ring = builtin("klein4_ring")
    action = ring.mul.tolist()
    action[1][0] = 3
    module = NModule(ring=ring, carrier=ring.group, action=action)
    assert generated_submodule(module, 0) == frozenset({0, 3})
    assert_closures_agree(module)


@given(name=st.sampled_from(RING_NAMES), data=st.data())
@settings(max_examples=100, deadline=None)
def test_generated_submodule_matches_the_old_loop(name, data):
    ring = ring_named(name)
    if data.draw(st.booleans()):
        assert_closures_agree(regular_representation(ring))
        return
    # 1 to 3 overwritten action entries, the first one half the time an
    # r*0 that is not 0
    n = ring.order
    action = ring.mul.tolist()
    for k in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.integers(0, n - 1))
        if k == 0 and n > 1 and data.draw(st.booleans()):
            action[r][0] = data.draw(st.integers(1, n - 1))
        else:
            action[r][data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
    assert_closures_agree(NModule(ring=ring, carrier=ring.group, action=action))
