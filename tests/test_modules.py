"""N-modules: annihilators, orbits, N-ideals, quotients, homs, isos."""
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearrings import (
    CapExceeded,
    annihilator,
    build_product,
    builtin,
    element_profile,
    enumerate_left_ideals,
    hom_from_cyclic_generator,
    is_ideal,
    is_left_morphic,
    is_N_ideal,
    modules_isomorphic,
    orbit,
    quotient_module,
    regular_representation,
    validate_module,
)
from nearrings.catalog import _f2sq_module, _zn_group
from nearrings.core import _generators
from nearrings.nmodules import IdealVerdict, NModule, generated_submodule, right_escape


def klein4():
    return builtin("klein4_ring")


def reference_validate_module(ring, carrier, action):
    """The per-row loop over both module laws: the oracle for
    ``validate_module``'s first failure and its message."""
    n, m = ring.order, carrier.order
    act = np.array(action, dtype=np.int64)
    radd, madd, rmul = ring.add, carrier.add, ring.mul
    for r1 in range(n):
        # (r1+r2)m == r1 m + r2 m
        lhs = act[radd[r1], :]
        rhs = madd[act[r1], act]
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            r2, x = bad[0]
            raise ValueError(f"additivity fails at (r1,r2,m)=({r1},{int(r2)},{int(x)})")
        # (r1 r2)m == r1 (r2 m)
        lhs = act[rmul[r1], :]
        rhs = act[r1][act]
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            r2, x = bad[0]
            raise ValueError(f"associativity fails at (r1,r2,m)=({r1},{int(r2)},{int(x)})")
    if ring.one is not None:
        bad = np.flatnonzero(act[ring.one] != np.arange(m))
        if len(bad):
            raise ValueError(f"module is not unitary at m={int(bad[0])}")
    return NModule(ring=ring, carrier=carrier, action=act)


def module_outcome(validate, ring, carrier, action):
    """The action table ``validate`` accepts, or the message it refuses with."""
    try:
        return validate(ring, carrier, action).action.tolist()
    except ValueError as exc:
        return str(exc)


SMALL_RINGS = ("zn_ring(2)", "zn_ring(3)", "zn_ring(4)", "klein4_ring", "m0_z3")


@functools.lru_cache(maxsize=None)
def additive_maps(name, m):
    """Every homomorphism from (R,+) to Z_m, R the builtin ``name``: each
    choice of images of the generators, extended along sums of generators,
    kept when the result is additive."""
    add = builtin(name).add
    gens = _generators(add)
    maps = []
    for images in itertools.product(range(m), repeat=len(gens)):
        h = {0: 0}
        reached = [0]
        for r in reached:  # breadth first; the list grows while it is read
            for s, image in zip(gens, images):
                t = int(add[r, s])
                if t not in h:
                    h[t] = (h[r] + image) % m
                    reached.append(t)
        h = np.array([h[r] for r in range(len(add))])
        if (h[add] == (h[:, None] + h) % m).all():
            maps.append(h)
    return maps


@st.composite
def random_actions(draw):
    """An action of a small builtin on Z2-Z4: random entries, or additive
    columns with one entry changed half the time.  Half the time the
    unity, if any, then acts as the identity."""
    name, m = draw(st.sampled_from(SMALL_RINGS)), draw(st.integers(2, 4))
    ring = builtin(name)
    n = ring.order
    if draw(st.booleans()):
        action = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=m, max_size=m),
                               min_size=n, max_size=n))
    else:
        maps = additive_maps(name, m)
        action = np.stack([maps[draw(st.integers(0, len(maps) - 1))]
                           for _ in range(m)], axis=1).tolist()
        if draw(st.booleans()):
            action[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = \
                draw(st.integers(0, m - 1))
    if ring.one is not None and draw(st.booleans()):
        action[ring.one] = list(range(m))
    return ring, _zn_group(m), action


class TestValidateModule:
    def test_f2sq_over_mat2(self):
        module = _f2sq_module()
        assert module.carrier.order == 4
        assert module.ring.order == 16

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="action table"):
            validate_module(builtin("zn_ring(2)"), _zn_group(2), [[0, 1]])

    def test_non_unitary_rejected(self):
        action = [[0, 0], [0, 0]]  # 1 * m = 0 violates unitarity
        with pytest.raises(ValueError, match="unitary"):
            validate_module(builtin("zn_ring(2)"), _zn_group(2), action)

    @pytest.mark.parametrize("entry", [True, 1.0, 7, -1])
    def test_bad_entry_named(self, entry):
        # [[0, 0], [0, 1]] is the Z2-module Z2; only the last entry differs.
        with pytest.raises(ValueError) as exc:
            validate_module(builtin("zn_ring(2)"), _zn_group(2), [[0, 0], [0, entry]])
        assert str(exc.value) == f"action table: entry {entry!r} in row 1 out of range [0,2)"

    def test_rectangular_table_is_checked(self):
        ring = builtin("zn_ring(4)")
        with pytest.raises(ValueError) as exc:
            validate_module(ring, _zn_group(2), [[0, 0], [0, 1], [0, 2], [0, 1]])
        assert str(exc.value) == "action table: entry 2 in row 2 out of range [0,2)"
        module = validate_module(ring, _zn_group(2), [[0, 0], [0, 1], [0, 0], [0, 1]])
        assert module.action.shape == (4, 2)

    def test_non_additive_rejected(self):
        # constant action breaks (r1 + r2) m = r1 m + r2 m over Z2
        ring = builtin("zn_ring(2)")
        action = [[0, 1], [0, 1]]
        with pytest.raises(ValueError, match="additivity|unitary"):
            validate_module(ring, _zn_group(2), action)

    @given(case=random_actions())
    @settings(max_examples=500, deadline=None)
    def test_first_failure_matches_the_per_row_loop(self, case):
        assert module_outcome(validate_module, *case) == \
            module_outcome(reference_validate_module, *case)


class TestAnnihilatorsAndOrbits:
    def test_klein4_values(self):
        ring = klein4()
        assert annihilator(ring, "left", {3}) == frozenset({0, 1})
        assert annihilator(ring, "left", {1}) == frozenset({0, 3})
        assert annihilator(ring, "left", {2}) == frozenset({0})
        assert orbit(ring, "left", 1) == frozenset({0, 1})
        assert orbit(ring, "left", 3) == frozenset({0, 3})
        assert orbit(ring, "left", 2) == frozenset(range(4))

    def test_set_annihilator_is_intersection(self):
        ring = builtin("m0_z3")
        joint = annihilator(ring, "left", {1, 3})
        assert joint == (annihilator(ring, "left", {1})
                         & annihilator(ring, "left", {3}))

    def test_right_side(self):
        ring = builtin("m0_z3")
        # f5 has right annihilator {x : f5 * x = 0}
        assert annihilator(ring, "right", {4}) == frozenset(
            x for x in range(9) if ring.mul[4][x] == 0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            annihilator(klein4(), "left", set())

    def test_bad_side(self):
        with pytest.raises(ValueError):
            orbit(klein4(), "middle", 0)
        with pytest.raises(ValueError, match="side must be"):
            annihilator(klein4(), "middle", {1})


class TestNIdeals:
    def test_klein4_left_ideals(self):
        ring = klein4()
        rep = regular_representation(ring)
        assert is_N_ideal(rep, {0, 1})
        assert is_N_ideal(rep, {0, 3})
        # {0, b} is a subgroup but fails the N-ideal condition
        v = is_N_ideal(rep, {0, 2})
        assert v.kind == "not_N_ideal"
        r, l, m = v.witness
        assert ring.sub(ring.mul[r][ring.add[l][m]], ring.mul[r][m]) not in {0, 2}

    def test_not_subgroup_witness(self):
        v = is_N_ideal(regular_representation(klein4()), {0, 1, 2})
        assert v.kind == "not_subgroup"
        l1, l2 = v.witness
        assert klein4().add[l1][l2] not in {0, 1, 2}

    def test_m0_z3_orbit_of_f5_not_ideal(self):
        ring = builtin("m0_z3")
        na = orbit(ring, "left", 4)
        v = is_N_ideal(regular_representation(ring), na)
        assert v.kind == "not_N_ideal"
        r, l, m = v.witness
        assert v.witness == (1, 4, 1)
        diff = ring.sub(ring.mul[r][ring.add[l][m]], ring.mul[r][m])
        assert diff not in na

    def test_enumerate_klein4(self):
        ideals = enumerate_left_ideals(klein4())
        assert [sorted(s) for s in ideals] == [[0], [0, 1], [0, 3], [0, 1, 2, 3]]
        assert all(is_ideal(klein4(), s) == "two_sided_ideal" for s in ideals)

    def test_enumerate_mat2(self):
        ring = builtin("mat2_f2")
        ideals = enumerate_left_ideals(ring)
        assert [len(s) for s in ideals] == [1, 4, 4, 4, 16]
        kinds = [is_ideal(ring, s) for s in ideals]
        assert kinds.count("left_ideal") == 3
        assert kinds.count("two_sided_ideal") == 2

    def test_enumeration_cap(self):
        # The order cap is the one limit left: 64 enumerates, 65 raises.
        assert len(enumerate_left_ideals(builtin("zn_ring(64)"))) == 7
        z65 = build_product((builtin("zn_ring(5)"), builtin("zn_ring(13)")))
        with pytest.raises(CapExceeded, match="ideal enumeration limited to order 64"):
            enumerate_left_ideals(z65)


class TestQuotients:
    def test_quotient_by_orbit(self):
        ring = klein4()
        rep = regular_representation(ring)
        quot = quotient_module(rep, orbit(ring, "left", 1))
        assert quot.module.carrier.order == 2
        assert quot.representatives == (0, 2)
        assert quot.projection == (0, 0, 1, 1)

    def test_quotient_rejects_non_ideal(self):
        ring = builtin("m0_z3")
        with pytest.raises(ValueError, match="not an N-ideal"):
            quotient_module(regular_representation(ring), orbit(ring, "left", 4))

    def test_quotient_action_well_defined(self):
        ring = builtin("mat2_f2")
        rep = regular_representation(ring)
        for subset in enumerate_left_ideals(ring):
            quot = quotient_module(rep, subset)
            proj = quot.projection
            for r in range(ring.order):
                for x in range(ring.order):
                    assert proj[ring.mul[r][x]] == quot.module.action[r][proj[x]]


class TestHomsAndIsos:
    def test_generated_submodule(self):
        ring = klein4()
        rep = regular_representation(ring)
        assert generated_submodule(rep, 1) == frozenset({0, 1})
        assert generated_submodule(rep, 2) == frozenset(range(4))

    def test_hom_quotient_to_annihilator(self):
        ring = klein4()
        rep = regular_representation(ring)
        quot = quotient_module(rep, orbit(ring, "left", 1))
        target = annihilator(ring, "left", {1})  # {0, c}
        res = hom_from_cyclic_generator(quot.module, 1, target, 3)
        assert res
        assert set(res.hom) == {0, 3}

    def test_hom_failure_names_relation(self):
        ring = klein4()
        rep = regular_representation(ring)
        quot = quotient_module(rep, orbit(ring, "left", 1))
        # sending the generator to 0 is the zero map, fine; sending it to a
        # non-annihilator element must break an action relation
        res = hom_from_cyclic_generator(quot.module, 1, frozenset(range(4)), 1)
        assert not res
        assert res.failure in ("action_relation", "sum_relation")

    def test_hom_requires_generator(self):
        ring = klein4()
        rep = regular_representation(ring)
        with pytest.raises(ValueError, match="generate"):
            hom_from_cyclic_generator(rep, 1, frozenset({0}), 0)

    def test_iso_quotient_vs_annihilator_all_elements(self):
        # N/Na is isomorphic to (0:a) exactly when a is left morphic; on
        # klein4 every element is, so every quotient matches.
        ring = klein4()
        rep = regular_representation(ring)
        for a in range(4):
            na = orbit(ring, "left", a)
            quot = quotient_module(rep, na)
            ann = annihilator(ring, "left", {a})
            res = modules_isomorphic(quot.module, ann, mode="bruteforce")
            assert res
            gen = modules_isomorphic(quot.module, ann, mode="generator")
            assert bool(gen) == bool(res)

    def test_iso_modes_agree_on_small_builtins(self):
        for name in ("klein4_ring", "zn_ring(4)", "zn_ring(5)", "ext_f2_f2"):
            ring = builtin(name)
            rep = regular_representation(ring)
            for a in range(ring.order):
                na = orbit(ring, "left", a)
                if not is_N_ideal(rep, na):
                    continue
                quot = quotient_module(rep, na)
                ann = annihilator(ring, "left", {a})
                brute = modules_isomorphic(quot.module, ann, mode="bruteforce")
                auto = modules_isomorphic(quot.module, ann, mode="auto")
                assert bool(brute) == bool(auto), (name, a)

    def test_size_mismatch_is_not_isomorphic(self):
        ring = klein4()
        rep = regular_representation(ring)
        assert not modules_isomorphic(rep, frozenset({0, 1}), mode="bruteforce")

    def test_bruteforce_cap(self):
        ring = builtin("m0_z3")
        rep = regular_representation(ring)
        with pytest.raises(ValueError, match="bruteforce"):
            modules_isomorphic(rep, frozenset(range(9)), mode="bruteforce")


# Every entry point that takes element indices checks them once: a negative
# index must not wrap round, an index >= n must not surface as numpy's
# IndexError, and neither a float nor a bool names an element.
BAD_INDICES = (-2, -1, 4, 7, 1.5, True)


def z4():
    return builtin("zn_ring(4)")


INDEX_ENTRY_POINTS = {
    "annihilator": lambda bad: annihilator(z4(), "left", {bad}),
    "orbit": lambda bad: orbit(z4(), "left", bad),
    "is_N_ideal": lambda bad: is_N_ideal(regular_representation(z4()), {0, bad}),
    "is_ideal": lambda bad: is_ideal(z4(), {0, bad}),
    "quotient_module": lambda bad: quotient_module(regular_representation(z4()), {0, bad}),
    "right_escape": lambda bad: right_escape(z4(), {0, bad}),
    "hom_target": lambda bad: hom_from_cyclic_generator(
        regular_representation(z4()), 1, frozenset({0, bad}), 0),
    "hom_image": lambda bad: hom_from_cyclic_generator(
        regular_representation(z4()), 1, frozenset(range(4)), bad),
    "iso_target": lambda bad: modules_isomorphic(
        regular_representation(z4()), frozenset({0, bad}), mode="generator"),
    "generated_submodule": lambda bad: generated_submodule(regular_representation(z4()), bad),
    "is_left_morphic": lambda bad: is_left_morphic(z4(), bad),
    "element_profile": lambda bad: element_profile(z4(), bad),
}


class TestElementIndices:
    @pytest.mark.parametrize("bad", BAD_INDICES)
    @pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
    def test_bad_index_raises_value_error(self, entry, bad):
        with pytest.raises(ValueError, match=r"element index .* is not an integer in \[0,4\)"):
            INDEX_ENTRY_POINTS[entry](bad)

    def test_the_reported_cases(self):
        # A negative index used to wrap round to n - 2 or n - 1, and 7 to
        # raise numpy's IndexError.
        with pytest.raises(ValueError):
            is_ideal(z4(), {0, -2})
        with pytest.raises(ValueError):
            annihilator(z4(), "left", {-1})
        with pytest.raises(ValueError):
            is_N_ideal(regular_representation(klein4()), {0, 7})

    def test_numpy_integers_are_indices(self):
        ring = z4()
        rep = regular_representation(ring)
        two = np.int64(2)
        assert annihilator(ring, "left", {two}) == annihilator(ring, "left", {2})
        assert orbit(ring, "left", np.int32(2)) == orbit(ring, "left", 2)
        assert is_N_ideal(rep, np.array([0, 2])) == is_N_ideal(rep, {0, 2})
        assert is_ideal(ring, [np.int8(0), two]) == "two_sided_ideal"
        assert generated_submodule(rep, two) == generated_submodule(rep, 2)
        hom = hom_from_cyclic_generator(rep, 1, frozenset(range(4)), two)
        assert hom == hom_from_cyclic_generator(rep, 1, frozenset(range(4)), 2)
        assert {type(y) for y in hom.hom} == {int}

    def test_image_outside_an_embedded_target_is_a_failure(self):
        res = hom_from_cyclic_generator(regular_representation(z4()), 1, frozenset({0, 2}), 1)
        assert (res.hom, res.failure, res.failure_elements) == \
            (None, "image_not_in_target", (1,))

    def test_empty_subsets_keep_their_results(self):
        ring = z4()
        assert is_N_ideal(regular_representation(ring), set()) == \
            IdealVerdict("not_subgroup", (0,))
        assert is_ideal(ring, ()) == "not_left_ideal"
        with pytest.raises(ValueError, match="annihilator of the empty set"):
            annihilator(ring, "left", set())
