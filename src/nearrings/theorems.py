"""Machine-checkable catalog of structural results about near-rings.

Each entry evaluates a quantified statement exhaustively on a concrete
instance.  Implications are checked as implications: when the hypothesis is
false the report is not_applicable and records why.  Scan order is always
ascending element index, lexicographic over tuples, so the first
counterexample is well defined.

Several results are stated under the running convention of a unital
zero-symmetric near-ring; those entries gate on both flags.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import CapExceeded, NearRing, table_array
from .catalog import builtin
from .classify import (
    all_element_profiles,
    is_left_morphic,
    structure_profile,
    units,
    _algorithm_I,
)
from .nmodules import (
    BRUTEFORCE_ISO_CAP,
    IDEAL_ENUM_ORDER_CAP,
    left_annihilators,
    left_orbits,
    orbit_is_N_ideal,
)


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    status: str  # pass | fail | not_applicable | error
    instantiations: int = 0
    counterexample: Optional[tuple[tuple[int, ...], str]] = None
    hypothesis_note: Optional[str] = None

    def to_json(self, nearring_name: str, notes: bool = False) -> dict:
        doc = {
            "nearring": nearring_name,
            "theorem": self.theorem_id,
            "status": self.status,
            "instantiations": self.instantiations,
        }
        if self.counterexample is not None:
            elements, clause = self.counterexample
            doc["counterexample"] = {"elements": list(elements), "clause": clause}
        if notes and self.hypothesis_note is not None:
            doc["hypothesis_note"] = self.hypothesis_note
        return doc


def _na(tid: str, note: str) -> TheoremReport:
    return TheoremReport(tid, "not_applicable", hypothesis_note=note)


def _convention_gate(ring: NearRing) -> Optional[str]:
    """Results stated for unital zero-symmetric near-rings."""
    if ring.one is None:
        return "near-ring has no unity"
    if not ring.flags.zero_symmetric:
        return "near-ring is not zero-symmetric"
    return None


def _same_tables(ring: NearRing, other: NearRing) -> bool:
    return ring.add == other.add and ring.mul == other.mul


# ---------------------------------------------------------------------------
# entries


def _check_lemma1_equiv(ring: NearRing) -> TheoremReport:
    tid = "lemma1_equiv"
    if ring.one is None:
        return _na(tid, "near-ring has no unity")
    if ring.order > BRUTEFORCE_ISO_CAP:
        return _na(tid, f"order {ring.order} exceeds brute-force cap {BRUTEFORCE_ISO_CAP}")
    count = 0
    for a in range(ring.order):
        count += 1
        if bool(is_left_morphic(ring, a)) != _algorithm_I(ring, a):
            return TheoremReport(tid, "fail", count,
                                 ((a,), "witness scan and isomorphism search disagree"))
    return TheoremReport(tid, "pass", count)


def _lemma10_map_failure(ring: NearRing, a: int, u: int) -> Optional[tuple[int, str]]:
    """The first x in (0:a) at which x -> xu is not additive or not
    N-linear, scanned in lemma10's order; None if there is none."""
    mul, add = ring.mul, ring.add
    ann_sorted = sorted(left_annihilators(ring)[a])
    for x in ann_sorted:
        for y in ann_sorted:
            if mul[add[x][y]][u] != add[mul[x][u]][mul[y][u]]:
                return x, "x -> xu not additive"
        for r in range(ring.order):
            if mul[mul[r][x]][u] != mul[r][mul[x][u]]:
                return x, "x -> xu not N-linear"
    return None


def _map_is_linear(ring: NearRing, u: int) -> bool:
    """x -> xu is additive and N-linear on all of N (always, on tables that
    passed validation: right distributivity and associativity)."""
    add, mul = table_array(ring.group, "add"), table_array(ring, "mul")
    xu = mul[:, u]
    return (np.array_equal(xu[add], add[xu[:, None], xu[None, :]])
            and np.array_equal(xu[mul], mul[:, xu]))


def _check_lemma10(ring: NearRing) -> TheoremReport:
    tid = "lemma10"
    if ring.one is None:
        return _na(tid, "near-ring has no unity")
    unit_set, inv = units(ring)
    if not unit_set:
        return _na(tid, "no units")
    n, mul = ring.order, ring.mul
    orbits = left_orbits(ring)
    anns = left_annihilators(ring)
    full = frozenset(range(n))
    # Where x -> xu is linear on all of N it is on every (0:a); only the
    # other units need the scan over (0:a).
    linear = {u: _map_is_linear(ring, u) for u in unit_set}
    count = 0
    for a in range(n):
        for u in sorted(unit_set):
            count += 1
            ui = inv[u]
            if orbits[u] != full:
                return TheoremReport(tid, "fail", count, ((a, u), "Nu != N"))
            if anns[a] != anns[mul[a][ui]]:
                return TheoremReport(tid, "fail", count,
                                     ((a, u), "(0:a) != (0:a*u^-1)"))
            translate = frozenset(mul[x][ui] for x in anns[a])
            if translate != anns[mul[u][a]]:
                return TheoremReport(tid, "fail", count,
                                     ((a, u), "(0:a)u^-1 != (0:ua)"))
            # x -> xu is an additive N-linear bijection onto (0:a)u
            image = [mul[x][u] for x in sorted(anns[a])]
            if len(set(image)) != len(image):
                return TheoremReport(tid, "fail", count, ((a, u), "x -> xu not injective"))
            failure = None if linear[u] else _lemma10_map_failure(ring, a, u)
            if failure:
                x, clause = failure
                return TheoremReport(tid, "fail", count, ((a, u, x), clause))
    return TheoremReport(tid, "pass", count)


def _check_prop2(ring: NearRing) -> TheoremReport:
    tid = "prop2"
    if ring.one is None:
        return _na(tid, "near-ring has no unity")
    unit_set, _ = units(ring)
    morphic = [a for a in range(ring.order) if is_left_morphic(ring, a)]
    if not morphic or not unit_set:
        return _na(tid, "no left morphic element / no unit")
    count = 0
    for a in morphic:
        for u in sorted(unit_set):
            count += 1
            if not is_left_morphic(ring, ring.mul[a][u]):
                return TheoremReport(tid, "fail", count, ((a, u), "au not left morphic"))
            if not is_left_morphic(ring, ring.mul[u][a]):
                return TheoremReport(tid, "fail", count, ((a, u), "ua not left morphic"))
    return TheoremReport(tid, "pass", count)


def _check_prop64(ring: NearRing) -> TheoremReport:
    tid = "prop64"
    if ring.one is None:
        return _na(tid, "near-ring has no unity")
    unit_set, _ = units(ring)
    anns = left_annihilators(ring)
    orbits = left_orbits(ring)
    full = frozenset(range(ring.order))
    morphic = [a for a in range(ring.order) if is_left_morphic(ring, a)]
    if not morphic:
        return _na(tid, "no left morphic element")
    count = 0
    for a in morphic:
        count += 1
        conds = (anns[a] == frozenset({0}), orbits[a] == full, a in unit_set)
        if len(set(conds)) != 1:
            return TheoremReport(tid, "fail", count,
                                 ((a,), f"conditions not equivalent: {conds}"))
    return TheoremReport(tid, "pass", count)


def _check_product_morphic(ring: NearRing) -> TheoremReport:
    tid = "product_morphic"
    if not ring.factors:
        return _na(tid, "not built as a direct product")
    if ring.one is None or any(f.one is None for f in ring.factors):
        return _na(tid, "product or factor has no unity")
    lm_product = structure_profile(ring).left_morphic
    lm_factors = all(structure_profile(f).left_morphic for f in ring.factors)
    count = 1 + len(ring.factors)
    if lm_product != lm_factors:
        return TheoremReport(tid, "fail", count,
                             ((), f"product morphic={lm_product}, factors morphic={lm_factors}"))
    return TheoremReport(tid, "pass", count)


def _check_ccc_decomposition(ring: NearRing) -> TheoremReport:
    tid = "ccc_decomposition"
    gate = _convention_gate(ring)
    if gate:
        return _na(tid, gate)
    sp = structure_profile(ring)
    if not (sp.regular and sp.subcommutative):
        return _na(tid, "not a generalised near-field (regular + subcommutative)")
    anns = left_annihilators(ring)
    orbits = left_orbits(ring)
    add = ring.add
    full = frozenset(range(ring.order))
    principal = orbit_is_N_ideal(ring)
    count = 0
    for a in range(ring.order):
        count += 1
        if not principal[a]:
            return TheoremReport(tid, "fail", count, ((a,), "Na is not an N-ideal"))
        if anns[a] & orbits[a] != frozenset({0}):
            return TheoremReport(tid, "fail", count, ((a,), "(0:a) meets Na nontrivially"))
        sums = frozenset(add[x][y] for x in anns[a] for y in orbits[a])
        if sums != full:
            return TheoremReport(tid, "fail", count, ((a,), "(0:a) + Na != N"))
        if not is_left_morphic(ring, a):
            return TheoremReport(tid, "fail", count, ((a,), "a not left morphic"))
    return TheoremReport(tid, "pass", count)


def _check_wsw_morphic(ring: NearRing) -> TheoremReport:
    tid = "wsw_morphic"
    gate = _convention_gate(ring)
    if gate:
        return _na(tid, gate)
    sp = structure_profile(ring)
    if not sp.weakly_divisible:
        return _na(tid, "not weakly divisible")
    count = 0
    for a in range(ring.order):
        count += 1
        if not is_left_morphic(ring, a):
            return TheoremReport(tid, "fail", count, ((a,), "element not left morphic"))
    return TheoremReport(tid, "pass", count)


def _check_lemma213(ring: NearRing) -> TheoremReport:
    tid = "lemma213"
    gate = _convention_gate(ring)
    if gate:
        return _na(tid, gate)
    sp = structure_profile(ring)
    if not sp.regular or ring.order <= 1:
        return _na(tid, "not a non-zero regular near-ring")
    if sp.reduced != sp.idempotents_central:
        witness = sp.witnesses.get("reduced") or sp.witnesses.get("idempotents_central") or ()
        return TheoremReport(tid, "fail", 2,
                             (tuple(witness), "reduced <-> idempotents central violated"))
    return TheoremReport(tid, "pass", 2)


def _check_lemma_hdt(ring: NearRing) -> TheoremReport:
    tid = "lemma_hdt"
    gate = _convention_gate(ring)
    if gate:
        return _na(tid, gate)
    sp = structure_profile(ring)
    conds = (sp.left_strongly_regular,
             sp.regular and sp.reduced,
             sp.regular and sp.idempotents_central)
    if len(set(conds)) != 1:
        return TheoremReport(tid, "fail", 3, ((), f"conditions not equivalent: {conds}"))
    return TheoremReport(tid, "pass", 3)


def _lsr_gate(ring: NearRing, tid: str):
    gate = _convention_gate(ring)
    if gate:
        return _na(tid, gate)
    if not structure_profile(ring).left_strongly_regular:
        return _na(tid, "not left strongly regular")
    return None


def _check_lemma13(ring: NearRing) -> TheoremReport:
    tid = "lemma13"
    blocked = _lsr_gate(ring, tid)
    if blocked:
        return blocked
    mul = ring.mul
    count = 0
    for a in range(ring.order):
        aa = mul[a][a]
        for x in range(ring.order):
            if mul[x][aa] == a:
                count += 1
                if mul[mul[a][x]][a] != a:
                    return TheoremReport(tid, "fail", count, ((a, x), "a != axa"))
                if mul[a][x] != mul[x][a]:
                    return TheoremReport(tid, "fail", count, ((a, x), "ax != xa"))
    return TheoremReport(tid, "pass", count)


def _check_lemma_ffff(ring: NearRing) -> TheoremReport:
    tid = "lemma_ffff"
    blocked = _lsr_gate(ring, tid)
    if blocked:
        return blocked
    profiles = all_element_profiles(ring)
    count = 0
    for p in profiles:
        count += 1
        if not p.is_unit_regular:
            return TheoremReport(tid, "fail", count, ((p.index,), "element not unit-regular"))
    return TheoremReport(tid, "pass", count)


def _check_prop_ff_square(ring: NearRing) -> TheoremReport:
    tid = "prop_ff_square"
    blocked = _lsr_gate(ring, tid)
    if blocked:
        return blocked
    mul = ring.mul
    count = 0
    for a in range(ring.order):
        count += 1
        sq = mul[a][a]
        if not any(mul[mul[sq][x]][sq] == sq for x in range(ring.order)):
            return TheoremReport(tid, "fail", count, ((a,), "a^2 not regular"))
    return TheoremReport(tid, "pass", count)


def _check_prop_ff_morphic(ring: NearRing) -> TheoremReport:
    tid = "prop_ff_morphic"
    blocked = _lsr_gate(ring, tid)
    if blocked:
        return blocked
    count = 0
    for a in range(ring.order):
        count += 1
        if not is_left_morphic(ring, a):
            return TheoremReport(tid, "fail", count, ((a,), "element not left morphic"))
    return TheoremReport(tid, "pass", count)


def _check_lemma_this_thm217(ring: NearRing) -> TheoremReport:
    tid = "lemma_this_thm217"
    gate = _convention_gate(ring)
    if gate:
        return _na(tid, gate)
    n, mul, add, neg, one = ring.order, ring.mul, ring.add, ring.neg, ring.one
    anns = left_annihilators(ring)
    orbits = left_orbits(ring)
    count = 0
    for e in range(n):
        if mul[e][e] != e:
            continue
        ce = add[one][neg[e]]  # 1 - e
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


def _check_prop_cccxi(ring: NearRing) -> TheoremReport:
    tid = "prop_cccxi"
    gate = _convention_gate(ring)
    if gate:
        return _na(tid, gate)
    sp = structure_profile(ring)
    if not sp.boolean:
        return _na(tid, "not Boolean (some element is not idempotent)")
    conds = [("addition not commutative", ring.flags.abelian_add),
             ("not left distributive", ring.flags.left_distributive),
             ("multiplication not commutative", ring.flags.commutative_mul)]
    count = 0
    for clause, ok in conds:
        count += 1
        if not ok:
            return TheoremReport(tid, "fail", count, ((), clause))
    for a in range(ring.order):
        count += 1
        if not is_left_morphic(ring, a):
            return TheoremReport(tid, "fail", count, ((a,), "element not left morphic"))
    return TheoremReport(tid, "pass", count)


def _check_prop226(ring: NearRing) -> TheoremReport:
    tid = "prop226"
    gate = _convention_gate(ring)
    if gate:
        return _na(tid, gate)
    if ring.order > IDEAL_ENUM_ORDER_CAP:
        return _na(tid, f"order {ring.order} exceeds ideal enumeration cap")
    sp = structure_profile(ring)
    conds = (sp.reduced and bool(sp.left_morphic),
             sp.left_strongly_regular,
             sp.regular and bool(sp.left_duo))
    if len(set(conds)) != 1:
        return TheoremReport(tid, "fail", 3, ((), f"conditions not equivalent: {conds}"))
    return TheoremReport(tid, "pass", 3)


def _check_thm62(ring: NearRing) -> TheoremReport:
    tid = "thm62"
    gate = _convention_gate(ring)
    if gate:
        return _na(tid, gate)
    sp = structure_profile(ring)
    if not (sp.left_morphic and sp.regular):
        return _na(tid, "not a left morphic regular near-ring")
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
        u = add[mul[mul[x][a]][x]][b]  # u := xax + b
        if u not in unit_set:
            return TheoremReport(tid, "fail", count, ((a, x, b), "u = xax+b is not a unit"))
        if mul[mul[a][u]][a] != a:
            return TheoremReport(tid, "fail", count, ((a, x, b), "aua != a for u = xax+b"))
    return TheoremReport(tid, "pass", count)


def _check_prop_tttt(ring: NearRing) -> TheoremReport:
    tid = "prop_tttt"
    gate = _convention_gate(ring)
    if gate:
        return _na(tid, gate)
    sp = structure_profile(ring)
    if not sp.has_ifp:
        return _na(tid, "near-ring does not have IFP")
    conds = (sp.left_strongly_regular,
             bool(sp.left_morphic) and sp.regular,
             bool(sp.unit_regular))
    if len(set(conds)) != 1:
        return TheoremReport(tid, "fail", 3, ((), f"conditions not equivalent: {conds}"))
    return TheoremReport(tid, "pass", 3)


def _check_ehrlich_T(ring: NearRing) -> TheoremReport:
    tid = "ehrlich_T"
    if not ring.is_ring() or ring.one is None:
        return _na(tid, "not a unital ring")
    sp = structure_profile(ring)
    lhs = bool(sp.unit_regular)
    rhs = sp.regular and bool(sp.left_morphic)
    if lhs != rhs:
        return TheoremReport(tid, "fail", 2,
                             ((), f"unit-regular={lhs} but regular+morphic={rhs}"))
    return TheoremReport(tid, "pass", 2)


def _check_ex20_claim(ring: NearRing) -> TheoremReport:
    tid = "ex20_claim"
    if not _same_tables(ring, builtin("m0_z3")):
        return _na(tid, "tables differ from the zero-fixing maps on Z3")
    sp = structure_profile(ring)
    if not sp.unit_regular:
        return TheoremReport(tid, "fail", 2, ((), "not unit-regular"))
    if sp.left_morphic:
        return TheoremReport(tid, "fail", 2, ((), "unexpectedly left morphic"))
    return TheoremReport(tid, "pass", 2)


def _check_ex20c_claim(ring: NearRing) -> TheoremReport:
    tid = "ex20c_claim"
    if not ring.extension:
        return _na(tid, "not built as an R x M extension")
    base, module = ring.extension
    m_n = module.carrier.order
    mul = ring.mul
    unit_set, _ = units(ring)
    base_units, _ = units(base)
    mneg = module.carrier.neg
    act = module.action
    count = 0
    for a in range(base.order):
        # the witness family <u, -um> needs a unit inner inverse of a in R
        u = next((u for u in sorted(base_units)
                  if base.mul[base.mul[a][u]][a] == a), None)
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
                return TheoremReport(tid, "fail", count,
                                     ((elem, w), "a*<u,-um>*a != a"))
            if m != 0 and is_left_morphic(ring, elem):
                return TheoremReport(tid, "fail", count,
                                     ((elem,), "<a,m> with m != 0 is left morphic"))
    return TheoremReport(tid, "pass", count)


def _check_ex_gggg_claim(ring: NearRing) -> TheoremReport:
    tid = "ex_gggg_claim"
    if not _same_tables(ring, builtin("mat2_f2")):
        return _na(tid, "tables differ from 2x2 matrices over F2")
    sp = structure_profile(ring)
    checks = [("not left morphic", bool(sp.left_morphic)),
              ("not regular", sp.regular),
              ("unexpectedly left duo", not sp.left_duo),
              ("unexpectedly left strongly regular", not sp.left_strongly_regular)]
    count = 0
    for clause, ok in checks:
        count += 1
        if not ok:
            return TheoremReport(tid, "fail", count, ((), clause))
    return TheoremReport(tid, "pass", count)


_CATALOG: dict[str, tuple[str, Callable[[NearRing], TheoremReport]]] = {
    "lemma1_equiv": ("witness scan agrees with quotient isomorphism search", _check_lemma1_equiv),
    "lemma10": ("unit translation laws for orbits and annihilators", _check_lemma10),
    "prop2": ("left morphic elements are closed under unit translation", _check_prop2),
    "prop64": ("trivial annihilator, full orbit, and invertibility coincide", _check_prop64),
    "product_morphic": ("a direct product is left morphic iff every factor is", _check_product_morphic),
    "ccc_decomposition": ("generalised near-fields decompose as (0:a) + Na", _check_ccc_decomposition),
    "wsw_morphic": ("finite weakly divisible near-rings are left morphic", _check_wsw_morphic),
    "lemma213": ("regular: reduced iff idempotents central", _check_lemma213),
    "lemma_hdt": ("left strongly regular iff regular+reduced iff regular+central idempotents", _check_lemma_hdt),
    "lemma13": ("a = xa^2 implies a = axa and ax = xa", _check_lemma13),
    "lemma_ffff": ("left strongly regular implies unit-regular", _check_lemma_ffff),
    "prop_ff_square": ("left strongly regular: squares are regular", _check_prop_ff_square),
    "prop_ff_morphic": ("left strongly regular implies left morphic", _check_prop_ff_morphic),
    "lemma_this_thm217": ("seven equivalent characterizations of morphic idempotents", _check_lemma_this_thm217),
    "prop_cccxi": ("Boolean near-rings are commutative morphic rings", _check_prop_cccxi),
    "prop226": ("reduced+morphic iff left strongly regular iff regular+left duo", _check_prop226),
    "thm62": ("left morphic regular implies unit-regular via u = xax+b", _check_thm62),
    "prop_tttt": ("with IFP: strongly regular, morphic+regular, unit-regular coincide", _check_prop_tttt),
    "ehrlich_T": ("rings: unit-regular iff regular and left morphic", _check_ehrlich_T),
    "ex20_claim": ("zero-fixing maps on Z3: unit-regular, not left morphic", _check_ex20_claim),
    "ex20c_claim": ("R x M extensions: unit-regular, never morphic off the zero section", _check_ex20c_claim),
    "ex_gggg_claim": ("2x2 matrices over F2: morphic regular, not duo, not strongly regular", _check_ex_gggg_claim),
}


def theorem_catalog() -> list[str]:
    return list(_CATALOG)


def theorem_description(theorem_id: str) -> str:
    return _CATALOG[theorem_id][0]


def check(ring: NearRing, theorem_id: str) -> TheoremReport:
    """Evaluate one entry; a size limit on the way is not_applicable."""
    if theorem_id not in _CATALOG:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    try:
        return _CATALOG[theorem_id][1](ring)
    except CapExceeded as exc:
        return _na(theorem_id, str(exc))


@dataclass(frozen=True)
class ChainSummary:
    """Regular-class membership per corpus member (by name)."""

    left_strongly_regular: tuple[str, ...]
    left_morphic_regular: tuple[str, ...]
    unit_regular: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "left_strongly_regular": list(self.left_strongly_regular),
            "left_morphic_regular": list(self.left_morphic_regular),
            "unit_regular": list(self.unit_regular),
        }


@dataclass(frozen=True)
class SuiteReport:
    cells: tuple[tuple[str, TheoremReport], ...]  # (nearring name, report)
    chain: ChainSummary

    @property
    def aggregate(self) -> str:
        return "fail" if any(r.status in ("fail", "error") for _, r in self.cells) else "pass"

    def to_json(self, notes: bool = False) -> dict:
        return {
            "cells": [r.to_json(name, notes) for name, r in self.cells],
            "aggregate": self.aggregate,
            "inclusion_chain": self.chain.to_json(),
        }


def run_suite(corpus, ids=None) -> SuiteReport:
    """Check every requested theorem on every corpus member.

    ``corpus`` is a list of (name, NearRing).  A cell that raises is
    recorded as an error cell; it does not abort the suite.
    """
    if ids is None:
        ids = theorem_catalog()
    cells = []
    for name, ring in corpus:
        for tid in ids:
            try:
                cells.append((name, check(ring, tid)))
            except Exception as exc:  # noqa: BLE001 - cell isolation
                cells.append((name, TheoremReport(tid, "error", 0,
                                                  ((), f"{type(exc).__name__}: {exc}"))))
    lsr, lmr, ur = [], [], []
    for name, ring in corpus:
        try:
            sp = structure_profile(ring)
        except CapExceeded:
            continue
        if sp.left_strongly_regular:
            lsr.append(name)
        if sp.left_morphic and sp.regular:
            lmr.append(name)
        if sp.unit_regular:
            ur.append(name)
    return SuiteReport(cells=tuple(cells),
                       chain=ChainSummary(tuple(lsr), tuple(lmr), tuple(ur)))
