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
import random
from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from nearrings import (
    IdealVerdict,
    MorphicVerdict,
    annihilator,
    builtin,
    is_left_morphic,
    is_N_ideal,
    orbit,
    regular_representation,
    structure_profile,
    validate_nearring,
)
from nearrings.catalog import DEFAULT_CORPUS_NAMES, _zn_group
import nearrings.classify as classify
from nearrings.classify import all_element_profiles, units
from nearrings.core import build_M0, build_product
from nearrings.nmodules import left_annihilators, left_orbits, orbit_is_N_ideal

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


@ring_and_seed
@settings(max_examples=60, deadline=None)
def test_orbits_annihilators_sizes_and_units(name, seed):
    ring = relabelled(ring_named(name), seed)
    n, mul = ring.order, ring.mul
    orbits, anns = reference_orbits(ring), reference_annihilators(ring)
    right_orbits = [frozenset(mul[a][x] for x in range(n)) for a in range(n)]
    right_anns = [frozenset(x for x in range(n) if mul[a][x] == 0) for a in range(n)]
    assert list(left_orbits(ring)) == orbits
    assert list(left_annihilators(ring)) == anns
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
    kinds = {is_N_ideal(rep, na).kind for na in left_orbits(ring)}
    assert kinds == {"N_ideal", "not_normal"}
    assert orbit_is_N_ideal(ring).tolist() == [a < 3 for a in range(6)]


def test_is_N_ideal_runs_only_for_failing_orbits(monkeypatch):
    ring = build_M0(_zn_group(4))
    calls = []

    def counting(module, subset):
        calls.append(subset)
        return is_N_ideal(module, subset)

    monkeypatch.setattr(classify, "is_N_ideal", counting)
    for a in range(ring.order):
        is_left_morphic(ring, a)
    failing = [left_orbits(ring)[a] for a in np.flatnonzero(~orbit_is_N_ideal(ring))]
    assert failing and calls == failing



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
