"""Acceptance gate: nine end-to-end criteria with explicit runtime bounds.

Each test prints a single summary line so a verbose run doubles as an
acceptance report.  Timing bounds are wall-clock on the current process
with cold caches when the file runs first in the session.
"""
import io
import json
import random
import time

from nearrings import (
    annihilator,
    build_product,
    builtin,
    default_corpus,
    is_N_ideal,
    orbit,
    regular_representation,
    run_suite,
    theorem_catalog,
)
from nearrings.classify import (
    all_element_profiles,
    is_left_morphic,
    structure_profile,
    units,
)
from nearrings.catalog import _zn_group
from nearrings.cli import main
from nearrings.core import build_M0
from nearrings.nmodules import enumerate_left_ideals, is_ideal
from nearrings.theorems import check, _algorithm_I


def report(criterion, elapsed):
    print(f"acceptance criterion {criterion}: PASS ({elapsed:.2f}s)")


def test_criterion_1_klein4_reproduction():
    t0 = time.perf_counter()
    ring = builtin("klein4_ring")
    # indices: 0, a=1, b=2, c=3
    assert orbit(ring, "left", 1) == frozenset({0, 1})
    assert orbit(ring, "left", 1) == annihilator(ring, "left", {3})
    assert orbit(ring, "left", 3) == frozenset({0, 3})
    assert orbit(ring, "left", 3) == annihilator(ring, "left", {1})
    assert annihilator(ring, "left", {2}) == frozenset({0})
    assert annihilator(ring, "left", {0}) == frozenset(range(4))
    assert orbit(ring, "left", 2) == frozenset(range(4))
    for a in range(4):
        assert is_left_morphic(ring, a)
    assert structure_profile(ring).left_morphic
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, elapsed)


def test_criterion_2_m0_z3_reproduction():
    t0 = time.perf_counter()
    ring = builtin("m0_z3")
    assert ring.order == 9
    unit_set, _ = units(ring)
    assert {ring.label(u) for u in unit_set} == {"f6", "f8"}
    profiles = all_element_profiles(ring)
    idem = {p.label for p in profiles if p.is_idempotent}
    assert idem == {"f1", "f3", "f4", "f5", "f6", "f9"}
    assert all(p.is_unit_regular for p in profiles)
    # f5 (index 4) breaks the morphic-idempotent characterization:
    # e(1-e) != 0, and the offending product is f2, which sends 2 to 1
    e = 4
    ce = ring.add[ring.one][ring.neg[e]]
    prod = ring.mul[e][ce]
    assert prod != 0
    assert ring.label(prod) == "f2"
    value_at_2 = (0, prod // 3, prod % 3)[2]  # value vector of the map f2
    assert value_at_2 != 0
    assert not is_left_morphic(ring, e)
    assert structure_profile(ring).verdict() == "unit-regular but not left morphic"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, elapsed)


def test_criterion_3_extension_order_64():
    t0 = time.perf_counter()
    ring = builtin("ext_mat2f2_f2sq")
    assert ring.order == 64
    assert ring.flags.unital and not ring.flags.zero_symmetric
    base, module = ring.extension
    base_units, _ = units(base)
    unit_set, _ = units(ring)
    m_n = module.carrier.order
    for a in range(base.order):
        # unit inner inverse of a in the base ring
        u = next(u for u in sorted(base_units)
                 if base.mul[base.mul[a][u]][a] == a)
        for m in range(m_n):
            elem = a * m_n + m
            w = u * m_n + module.carrier.neg[module.action[u][m]]
            assert w in unit_set
            assert ring.mul[ring.mul[elem][w]][elem] == elem
            if m != 0:
                assert not is_left_morphic(ring, elem)
    assert all(p.is_unit_regular for p in all_element_profiles(ring))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, elapsed)


def test_criterion_4_mat2_f2_reproduction():
    t0 = time.perf_counter()
    ring = builtin("mat2_f2")
    sp = structure_profile(ring)
    assert sp.is_ring and sp.regular and sp.left_morphic
    assert not sp.left_strongly_regular
    (nilpotent,) = sp.witnesses["reduced"]
    power = ring.mul[nilpotent][nilpotent]
    assert nilpotent != 0 and power == 0  # nilpotency index 2
    assert sp.left_duo is False
    ideals = enumerate_left_ideals(ring)
    one_sided = [s for s in ideals if is_ideal(ring, s) == "left_ideal"]
    assert one_sided and min(len(s) for s in one_sided) == 4  # minimal ones
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, elapsed)


def test_criterion_5_inclusion_chain():
    t0 = time.perf_counter()
    suite = run_suite(default_corpus())
    chain = suite.chain
    lsr = set(chain.left_strongly_regular)
    lmr = set(chain.left_morphic_regular)
    ur = set(chain.unit_regular)
    assert "klein4_ring" in lsr & lmr & ur
    assert "mat2_f2" in lmr - lsr
    assert "m0_z3" in ur - lmr
    assert suite.aggregate == "pass"
    out = io.StringIO()
    assert main(["verify"], out=out) == 0
    elapsed = time.perf_counter() - t0
    report(5, elapsed)


def test_criterion_6_theorem_regression():
    t0 = time.perf_counter()
    corpus = default_corpus()
    suite = run_suite(corpus)
    bad = [(name, cell) for name, cell in suite.cells
           if cell.status not in ("pass", "not_applicable")]
    assert not bad, bad
    assert len(suite.cells) == len(corpus) * len(theorem_catalog())
    # cross-oracle agreement on every element of every small builtin
    for name, ring in corpus:
        if ring.order <= 8:
            for a in range(ring.order):
                assert bool(is_left_morphic(ring, a)) == _algorithm_I(ring, a), (name, a)
    # thm62's constructed unit on every applicable member
    for name, ring in corpus:
        rep = check(ring, "thm62")
        if rep.status == "pass":
            unit_set, _ = units(ring)
            profiles = all_element_profiles(ring)
            for p in profiles:
                x, b = p.regular_witness, p.morphic.witness
                u = ring.add[ring.mul[ring.mul[x][p.index]][x]][b]
                assert u in unit_set
                assert ring.mul[ring.mul[p.index][u]][p.index] == p.index
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, elapsed)


def test_criterion_7_randomized_properties():
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    corpus = default_corpus()
    assertions = 0
    while assertions < 10_000:
        name, ring = rng.choice(corpus)
        n = ring.order
        a = rng.randrange(n)
        na = orbit(ring, "left", a)
        ann = annihilator(ring, "left", {a})
        assert len(na) * len(ann) == n
        assert is_N_ideal(regular_representation(ring), ann)
        assertions += 2
        unit_set, inv = units(ring)
        u = rng.choice(sorted(unit_set))
        ui = inv[u]
        # unit translation laws
        assert orbit(ring, "left", u) == frozenset(range(n))
        assert ann == annihilator(ring, "left", {ring.mul[a][ui]})
        assert (frozenset(ring.mul[x][ui] for x in ann)
                == annihilator(ring, "left", {ring.mul[u][a]}))
        assert len({ring.mul[x][u] for x in ann}) == len(ann)
        assertions += 4
        # morphic closure under unit translation, witness annihilation
        v = is_left_morphic(ring, a)
        assert bool(is_left_morphic(ring, ring.mul[a][u])) == bool(v)
        assert bool(is_left_morphic(ring, ring.mul[u][a])) == bool(v)
        assertions += 2
        if v:
            assert ring.mul[a][v.witness] == 0
            assert ring.mul[v.witness][a] == 0
            assertions += 2
    elapsed = time.perf_counter() - t0
    print(f"acceptance criterion 7: PASS ({assertions} assertions, {elapsed:.2f}s)")


def test_criterion_8_deterministic_verify():
    t0 = time.perf_counter()
    runs = []
    for _ in range(2):
        out = io.StringIO()
        code = main(["verify", "--format", "json"], out=out)
        assert code == 0
        runs.append(out.getvalue().encode("utf-8"))
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["aggregate"] == "pass"
    elapsed = time.perf_counter() - t0
    report(8, elapsed)


def test_criterion_9_classify_order_1024():
    # Tables of order 1024, above the ideal-enumeration limit of 64: every
    # profile and every theorem cell gives a verdict.
    corpus = [("m0_z4 x z16", build_product((build_M0(_zn_group(4)), builtin("zn_ring(16)")))),
              ("z32 x z32", build_product((builtin("zn_ring(32)"),) * 2))]
    t0 = time.perf_counter()
    for name, ring in corpus:
        assert len(all_element_profiles(ring)) == 1024
        sp = structure_profile(ring)
        assert (sp.is_ring, sp.left_duo, sp.verdict()) == (name == "z32 x z32", None, "not regular")
    suite = run_suite(corpus)
    assert {cell.status for _, cell in suite.cells} <= {"pass", "not_applicable"}
    assert suite.aggregate == "pass"
    elapsed = time.perf_counter() - t0
    assert elapsed < 15.0
    report(9, elapsed)
