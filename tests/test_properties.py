"""Property-based checks of structural invariants over the builtin corpus."""
import json

from hypothesis import given, settings, strategies as st

from nearrings import (
    annihilator,
    builtin,
    emit_table,
    from_document,
    is_N_ideal,
    orbit,
    parse_table,
    regular_representation,
)
from nearrings.classify import is_left_morphic, units
from nearrings.core import AxiomViolation, TableFormatError, same_tables

CORPUS = ("klein4_ring", "zn_ring(2)", "zn_ring(4)", "zn_ring(6)",
          "zn_ring(9)", "m0_z3", "mat2_f2", "klein4_x_f2",
          "ext_f2_f2", "ext_mat2f2_f2sq")

rings = st.sampled_from(CORPUS)


def pick(ring, data):
    return data.draw(st.integers(min_value=0, max_value=ring.order - 1))


@given(name=rings, data=st.data())
@settings(max_examples=200, deadline=None)
def test_orbit_times_annihilator_is_order(name, data):
    # r -> r*a is an additive endomorphism of (N,+): image Na, kernel (0:a)
    ring = builtin(name)
    a = pick(ring, data)
    na = orbit(ring, "left", a)
    ann = annihilator(ring, "left", {a})
    assert len(na) * len(ann) == ring.order


@given(name=rings, data=st.data())
@settings(max_examples=200, deadline=None)
def test_left_annihilator_is_always_an_N_ideal(name, data):
    ring = builtin(name)
    a = pick(ring, data)
    ann = annihilator(ring, "left", {a})
    assert is_N_ideal(regular_representation(ring), ann)


@given(name=rings, data=st.data())
@settings(max_examples=200, deadline=None)
def test_morphic_closed_under_unit_translation(name, data):
    ring = builtin(name)
    a = pick(ring, data)
    unit_set, _ = units(ring)
    u = data.draw(st.sampled_from(sorted(unit_set)))
    lm = bool(is_left_morphic(ring, a))
    assert bool(is_left_morphic(ring, ring.mul[a][u])) == lm
    assert bool(is_left_morphic(ring, ring.mul[u][a])) == lm


@given(name=rings, data=st.data())
@settings(max_examples=200, deadline=None)
def test_unit_translation_of_annihilators(name, data):
    ring = builtin(name)
    a = pick(ring, data)
    unit_set, inv = units(ring)
    u = data.draw(st.sampled_from(sorted(unit_set)))
    ui = inv[u]
    ann_a = annihilator(ring, "left", {a})
    assert orbit(ring, "left", u) == frozenset(range(ring.order))
    assert ann_a == annihilator(ring, "left", {ring.mul[a][ui]})
    translated = frozenset(ring.mul[x][ui] for x in ann_a)
    assert translated == annihilator(ring, "left", {ring.mul[u][a]})


@given(name=rings, data=st.data())
@settings(max_examples=200, deadline=None)
def test_morphic_witness_mutually_annihilates(name, data):
    ring = builtin(name)
    a = pick(ring, data)
    v = is_left_morphic(ring, a)
    if v:
        assert ring.mul[a][v.witness] == 0
        assert ring.mul[v.witness][a] == 0


@given(name=rings, data=st.data())
@settings(max_examples=100, deadline=None)
def test_failed_ideal_verdicts_reevaluate(name, data):
    ring = builtin(name)
    n = ring.order
    subset = data.draw(st.sets(st.integers(0, n - 1), min_size=0, max_size=n))
    subset.add(0)
    v = is_N_ideal(regular_representation(ring), frozenset(subset))
    if v.kind == "not_subgroup":
        if len(v.witness) == 2:
            l1, l2 = v.witness
            assert ring.add[l1][l2] not in subset
    elif v.kind == "not_normal":
        x, l = v.witness
        assert ring.add[ring.add[x][l]][ring.neg[x]] not in subset
    elif v.kind == "not_N_ideal":
        r, l, m = v.witness
        assert ring.sub(ring.mul[r][ring.add[l][m]], ring.mul[r][m]) not in subset


@given(name=rings)
@settings(max_examples=30, deadline=None)
def test_serialization_roundtrip(name):
    ring = builtin(name)
    back = from_document(parse_table(emit_table(ring)))
    assert same_tables(back, ring)
    assert back.flags == ring.flags and back.one == ring.one


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_single_entry_corruption_never_validates_silently(data):
    """Mutating one mul entry of klein4 either still satisfies all laws
    (and then genuinely does, witnessed by re-checking the broken law) or
    raises an AxiomViolation whose witness re-evaluates."""
    ring = builtin("klein4_ring")
    doc = json.loads(emit_table(ring))
    i = data.draw(st.integers(0, 3))
    j = data.draw(st.integers(0, 3))
    v = data.draw(st.integers(0, 3))
    if doc["mul"][i][j] == v:
        return
    doc["mul"][i][j] = v
    try:
        from_document(parse_table(json.dumps(doc)))
    except AxiomViolation as exc:
        mul, add = doc["mul"], doc["add"]
        if exc.law == "mul_assoc":
            x, y, z = exc.witness
            assert mul[mul[x][y]][z] != mul[x][mul[y][z]]
        elif exc.law == "right_dist":
            x, y, z = exc.witness
            assert mul[add[x][y]][z] != add[mul[x][z]][mul[y][z]]
        elif exc.law == "unity":
            e, x = exc.witness
            assert mul[e][x] != x or mul[x][e] != x
        else:
            raise AssertionError(f"unexpected law {exc.law}")
    except TableFormatError:
        raise AssertionError("corruption misreported as a format problem")
