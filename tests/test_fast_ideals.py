"""The generator-reduced N-ideal layer against the exhaustive scans.

``reference_is_N_ideal`` (every pair of L, every x of M against every l,
every r against every l and m) and ``reference_enumerate`` (closure of every
singleton, then closure of every pairwise union until nothing new appears)
are the oracles: ``is_N_ideal`` must return the same verdict and the same
first witness, and ``enumerate_left_ideals`` the same sorted list.
``reference_batch_rules`` runs ``orbit_is_N_ideal``'s batch rules on every
element, and the one pass over the distinct orbits must agree with it.
"""
import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearrings import (
    annihilator,
    builtin,
    enumerate_left_ideals,
    is_N_ideal,
    orbit,
    quotient_module,
    regular_representation,
    validate_nearring,
)
import nearrings.nmodules as nmodules
from nearrings.catalog import _f2_module, _f2sq_module, _zn_group
from nearrings.core import _seal, build_M0, build_product, group_generators, laws_hold
from nearrings.nmodules import (NModule, _subgroup_generators, orbit_classes, orbit_is_N_ideal,
                                orbit_masks)

SMALL_BUILTINS = ("klein4_ring", "zn_ring(2)", "zn_ring(6)", "zn_ring(8)", "zn_ring(12)",
                  "m0_z3", "mat2_f2", "klein4_x_f2", "ext_f2_f2")


def reference_is_N_ideal(module, subset):
    members = sorted(subset)
    m_n = module.carrier.order
    madd, mneg, act = module.carrier.add, module.carrier.neg, module.action
    in_l = [False] * m_n
    for x in members:
        in_l[x] = True
    if not members or not in_l[0]:
        return ("not_subgroup", (0,))
    for l1 in members:
        for l2 in members:
            if not in_l[madd[l1][l2]]:
                return ("not_subgroup", (l1, l2))
    for x in range(m_n):
        for l in members:
            if not in_l[madd[madd[x][l]][mneg[x]]]:
                return ("not_normal", (x, l))
    for r in range(module.ring.order):
        for l in members:
            for x in range(m_n):
                if not in_l[madd[act[r][madd[l][x]]][mneg[act[r][x]]]]:
                    return ("not_N_ideal", (r, l, x))
    return ("N_ideal", ())


def reference_closure(ring, seed):
    add, mul, neg = np.array(ring.add), np.array(ring.mul), np.array(ring.neg)
    members = set(seed) | {0}
    while True:
        mem = np.array(sorted(members))
        new = set(add[np.ix_(mem, mem)].ravel().tolist())
        new.update(add[add[:, mem], neg[:, None]].ravel().tolist())
        new.update(add[mul[:, add[mem, :]], neg[mul][:, None, :]].ravel().tolist())
        new.update(neg[mem].tolist())
        if new <= members:
            return frozenset(members)
        members |= new


def reference_enumerate(ring):
    found = {frozenset({0})} | {reference_closure(ring, {a}) for a in range(ring.order)}
    while True:
        pairs = list(found)
        joins = {reference_closure(ring, l1 | l2) for i, l1 in enumerate(pairs)
                 for l2 in pairs[i + 1:] if not (l1 <= l2 or l2 <= l1)}
        if joins <= found:
            return sorted(found, key=lambda s: (len(s), sorted(s)))
        found |= joins


def fast(module, subset):
    v = is_N_ideal(module, subset)
    return (v.kind, tuple(v.witness))


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product(a, b):
    na, nb = len(a), len(b)
    return [[a[x // nb][y // nb] * nb + b[x % nb][y % nb]
             for y in range(na * nb)] for x in range(na * nb)]


def dihedral(k):
    """D_k of order 2k; index i + k*j stands for r^i s^j."""
    def op(x, y):
        (i1, j1), (i2, j2) = divmod(x, k)[::-1], divmod(y, k)[::-1]
        return (i1 + (i2 if j1 == 0 else -i2)) % k + k * (j1 ^ j2)
    return [[op(x, y) for y in range(2 * k)] for x in range(2 * k)]


def projection_ring(add):
    """x*y = x for y != 0: a zero-symmetric near-ring on any group."""
    n = len(add)
    return validate_nearring(add, [[x if y else 0 for y in range(n)] for x in range(n)])


def zero_ring(add):
    """x*y = 0: every normal subgroup is an N-ideal."""
    n = len(add)
    return validate_nearring(add, [[0] * n for _ in range(n)])


def with_action(ring, action):
    """The regular carrier of ``ring`` under an arbitrary action table.  The
    reductions need only the group laws of the carrier, not module laws."""
    return NModule(ring=ring, carrier=ring.group, action=tuple(map(tuple, action)))


def subgroup(add, seeds):
    """The subgroup generated by ``seeds`` (closure under + in a finite group)."""
    reached = {0} | set(seeds)
    while True:
        new = {add[x][y] for x in reached for y in reached} - reached
        if not new:
            return frozenset(reached)
        reached |= new


RINGS = {
    **{name: (lambda name=name: builtin(name)) for name in SMALL_BUILTINS},
    "d4_projection": lambda: projection_ring(dihedral(4)),
    "d8_projection": lambda: projection_ring(dihedral(8)),
    "s3_projection": lambda: projection_ring(dihedral(3)),
    "d4_zero": lambda: zero_ring(dihedral(4)),
    "z2xz4_zero": lambda: zero_ring(product(cyclic(2), cyclic(4))),
    "z2xz2xz2_zero": lambda: zero_ring(product(product(cyclic(2), cyclic(2)), cyclic(2))),
    "zn_ring(16)": lambda: builtin("zn_ring(16)"),
}

_ring_cache = {}


def ring_named(name):
    if name not in _ring_cache:
        _ring_cache[name] = RINGS[name]()
    return _ring_cache[name]


@st.composite
def candidate_subsets(draw, module):
    """Subsets that reach every stage of the test: random sets, generated
    subgroups, orbits and annihilators (regular modules), and single-element
    perturbations of each."""
    m = module.carrier.order
    add = module.carrier.add
    kind = draw(st.sampled_from(("random", "subgroup", "subgroup", "orbit", "annihilator")))
    if kind == "random":
        subset = set(draw(st.lists(st.integers(0, m - 1), max_size=m)))
        if draw(st.booleans()):
            subset.add(0)
    elif kind == "subgroup" or module.carrier.order != module.ring.order:
        subset = set(subgroup(add, draw(st.lists(st.integers(0, m - 1), max_size=3))))
    else:
        side = draw(st.sampled_from(("left", "right")))
        a = draw(st.integers(0, m - 1))
        subset = set(orbit(module.ring, side, a) if kind == "orbit"
                     else annihilator(module.ring, side, {a}))
    if draw(st.integers(0, 3)) == 0:
        subset ^= {draw(st.integers(0, m - 1))}
    return subset


def assert_agrees(module, subset):
    assert fast(module, subset) == reference_is_N_ideal(module, subset)


@given(name=st.sampled_from(sorted(RINGS)), data=st.data())
@settings(max_examples=400, deadline=None)
def test_regular_representation(name, data):
    module = regular_representation(ring_named(name))
    assert_agrees(module, data.draw(candidate_subsets(module)))


@given(name=st.sampled_from(sorted(RINGS)), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=300, deadline=None)
def test_arbitrary_actions(name, seed, data):
    # With a random action the N-ideal condition fails at varied (r, l, m),
    # often only at a later generator of L.
    ring = ring_named(name)
    n = ring.order
    rng = random.Random(seed)
    action = [list(row) for row in ring.mul]
    for _ in range(rng.randint(1, 4)):
        action[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    module = with_action(ring, action)
    assert_agrees(module, data.draw(candidate_subsets(module)))


@pytest.mark.parametrize("k", [3, 4, 8])
def test_non_normal_subgroups_are_found(k):
    # No corpus ring has a non-abelian carrier, so only these reach not_normal.
    module = regular_representation(projection_ring(dihedral(k)))
    kinds = set()
    for s in range(2 * k):
        subset = subgroup(module.carrier.add, [s])
        verdict = fast(module, subset)
        assert verdict == reference_is_N_ideal(module, subset)
        kinds.add(verdict[0])
    assert "not_normal" in kinds


def non_regular_modules():
    rep = regular_representation(builtin("zn_ring(12)"))
    yield quotient_module(rep, orbit(builtin("zn_ring(12)"), "left", 4)).module
    rep = regular_representation(builtin("mat2_f2"))
    yield quotient_module(rep, enumerate_left_ideals(builtin("mat2_f2"))[1]).module
    yield _f2_module()
    yield _f2sq_module()
    # the F2^2 carrier under an action that is not a module action
    module = _f2sq_module()
    action = [list(row) for row in module.action]
    action[5][1], action[9][3] = 2, 1
    yield dataclasses.replace(module, action=tuple(map(tuple, action)))


@pytest.mark.parametrize("module", list(non_regular_modules()))
def test_non_regular_modules_every_subset(module):
    m = module.carrier.order
    for bits in range(1 << m):
        subset = {x for x in range(m) if bits >> x & 1}
        assert_agrees(module, subset)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_enumeration_matches_pairwise_closure(name):
    ring = ring_named(name)
    assert enumerate_left_ideals(ring) == reference_enumerate(ring)


@given(name=st.sampled_from(sorted(RINGS)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_enumeration_with_arbitrary_multiplication(name, seed):
    # The join argument uses only the group laws, so any table on the
    # carrier exercises it; the derived cache is not copied by replace.
    ring = ring_named(name)
    n = ring.order
    rng = random.Random(seed)
    mul = [list(row) for row in ring.mul]
    for _ in range(rng.randint(1, 3)):
        mul[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    scrambled = dataclasses.replace(ring, mul=tuple(map(tuple, mul)))
    assert enumerate_left_ideals(scrambled) == reference_enumerate(scrambled)


def test_enumerated_ideals_pass_the_exhaustive_test():
    ring = ring_named("z2xz2xz2_zero")
    rep = regular_representation(ring)
    ideals = enumerate_left_ideals(ring)
    assert len(ideals) == 16  # every subgroup of Z2^3
    assert all(reference_is_N_ideal(rep, s) == ("N_ideal", ()) for s in ideals)


def test_subgroup_generators_generate():
    add = dihedral(8)
    for seeds in ([1], [8], [2, 9], [1, 8], [4, 12], [0]):
        members = np.array(sorted(subgroup(add, seeds)))
        gens = _subgroup_generators(np.array(add), members).tolist()
        assert set(gens) <= set(members.tolist())
        assert subgroup(add, gens) == frozenset(members.tolist())


# ---------------------------------------------------------------------------
# the orbit pass of orbit_is_N_ideal against its batch rules run per element
#
# test_classify_tables imports this module, so its ring families are
# imported inside the tests.


def reference_batch_rules(ring):
    """Per a, ``orbit_is_N_ideal``'s batch rules on a itself, on a table
    that keeps the near-ring laws: for every generator s of (N,+), the
    conjugates x + s*a - x (x a generator) and r(s*a + m) - rm (every m, r
    each generator whose row is not an endomorphism of (N,+), by the
    exhaustive check) lie in Na."""
    n, add, neg, mul = ring.order, ring.add, ring.neg, ring.mul
    orbits, cols = orbit_masks(ring, "left"), np.arange(n)
    gens = group_generators(ring.group)
    movers = [r for r in gens if (mul[r][add] != add[mul[r][:, None], mul[r]]).any()]
    ok = np.ones(n, dtype=bool)
    for s in gens:
        sa = mul[s]  # s*a for every a
        for x in gens:
            ok &= orbits[cols, add[add[x, sa], neg[x]]]
        for r in movers:
            ok &= orbits[cols[:, None], add[mul[r][add[sa]], neg[mul[r]]]].all(axis=1)
    return ok


M0_Z4_PRODUCTS = {
    "m0_z4 x zn_ring(4)": lambda: build_product((build_M0(_zn_group(4)), builtin("zn_ring(4)"))),
    "m0_z4 x m0_z3": lambda: build_product((build_M0(_zn_group(4)), builtin("m0_z3"))),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(M0_Z4_PRODUCTS))
def test_orbit_pass_matches_the_per_element_rules(name, seed):
    # Orders 256 and 576, with orbits shared by many elements, some of them
    # N-ideals and some not.
    from test_classify_tables import relabelled
    ring = relabelled(M0_Z4_PRODUCTS[name](), seed)
    expected = reference_batch_rules(ring)
    assert expected.any() and not expected.all()
    assert len(set(orbit_classes(ring).tolist())) < ring.order
    assert orbit_is_N_ideal(ring).tolist() == expected.tolist()


def test_orbit_pass_matches_the_per_element_rules_on_the_families():
    from test_classify_tables import RING_NAMES, relabelled, ring_named
    for name in RING_NAMES:
        for seed in (0, 1):
            ring = relabelled(ring_named(name), seed)
            assert orbit_is_N_ideal(ring).tolist() == reference_batch_rules(ring).tolist(), name


@pytest.mark.parametrize("law_broken", [False, True])
def test_orbit_pass_reads_only_the_representative_rows(monkeypatch, law_broken):
    # Every row of Na but that of the first element of its class is
    # replaced by its complement, which lacks 0: a pass that tests any
    # other row, or spreads a verdict by the wrong label, gets a wrong
    # verdict somewhere, or sends a row without 0 to the stage scans.  A
    # copy that breaks the laws tests each representative by the stage
    # scans alone.
    ring = M0_Z4_PRODUCTS["m0_z4 x zn_ring(4)"]()
    if law_broken:
        mul = ring.mul.copy()
        mul[5, 7] = (mul[5, 7] + 1) % ring.order
        ring = dataclasses.replace(ring, mul=mul)
    assert laws_hold(ring) != law_broken
    expected = orbit_is_N_ideal(ring)
    assert expected.any() and not expected.all()
    poisoned = dataclasses.replace(ring)
    classes = orbit_classes(poisoned)
    masks = orbit_masks(ring, "left").copy()
    others = classes != np.arange(ring.order)
    masks[others] = ~masks[others]
    orbit_masks.keep(poisoned, _seal(masks), "left")
    scanned = []
    scans = nmodules._stage_scans
    monkeypatch.setattr(nmodules, "_stage_scans",
                        lambda module, in_l: scanned.append(in_l[0]) or scans(module, in_l))
    assert orbit_is_N_ideal(poisoned).tolist() == expected.tolist()
    rejected = set(classes[~expected].tolist())
    assert scanned == [True] * len(set(classes.tolist()) if law_broken else rejected)


def test_orbit_pass_takes_its_movers_from_the_generator_rows(monkeypatch):
    # Only generator rows are tested as movers: a row that is not an
    # endomorphism but no generator is covered by the closure under +.
    ring = build_product((build_M0(_zn_group(4)), builtin("m0_z3")))
    rows, columns = [], []
    left_dist = nmodules._left_dist

    def spy(add, mul):
        bad = left_dist(add, mul)
        return lambda xs, ys: rows.extend(xs.tolist()) or columns.append(list(ys)) or bad(xs, ys)

    monkeypatch.setattr(nmodules, "_left_dist", spy)
    orbit_is_N_ideal(ring)
    gens = group_generators(ring.group)
    assert rows == gens and columns == [gens] * len(gens)
