"""Machine-checkable catalog of structural results about near-rings.

Each entry evaluates a quantified statement exhaustively on a concrete
instance.  Implications are checked as implications: when the hypothesis is
false the report is not_applicable and records why.  Scan order is always
ascending element index, lexicographic over tuples, so the first
counterexample is well defined.

Most results are stated under the paper's running convention of a unital
zero-symmetric near-ring, some also for left strongly regular ones.  Each
catalog entry declares that shared hypothesis as its gate (none, unity, the
convention, or the convention and left strong regularity), and ``check``
applies the gate before the entry runs: a ring that fails it is
not_applicable with the gate's note.  Hypotheses of one entry alone stay in
that entry, and so do size limits: ``lemma1_equiv`` and ``prop226`` are
not_applicable above their own order limits, and no other cell has one.

Entries read the whole-ring tables: rows of the orbit and annihilator masks
and the per-element vectors of ``classify.element_column``.  A scan over the
elements becomes an (element x clause) bool table, whose first hit
(``core._first_hit``; ``_first_failure`` when the counterexample is the
element) is the ascending loop's first failing element and clause;
``_equivalence`` reports a tuple of conditions that should coincide.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import NearRing, _first_hit, laws_hold, same_tables
from .catalog import builtin
from .classify import element_column, inner_products, structure_profile, _algorithm_I
from .nmodules import (
    BRUTEFORCE_ISO_CAP,
    IDEAL_ENUM_ORDER_CAP,
    annihilator_masks,
    orbit_is_N_ideal,
    orbit_masks,
)


class TheoremReport(NamedTuple):
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


# A gate returns the note saying why the ring fails it, or None.
Gate = Callable[[NearRing], Optional[str]]
Cell = Callable[[NearRing, str], TheoremReport]


def _unital(ring: NearRing) -> Optional[str]:
    return "near-ring has no unity" if ring.one is None else None


def _convention_gate(ring: NearRing) -> Optional[str]:
    """The running convention: a unital zero-symmetric near-ring."""
    note = _unital(ring)
    if note is None and ring.mul[:, 0].any():  # some x*0 != 0
        note = "near-ring is not zero-symmetric"
    return note


def _lsr_gate(ring: NearRing) -> Optional[str]:
    note = _convention_gate(ring)
    if note is None and not structure_profile(ring).left_strongly_regular:
        note = "not left strongly regular"
    return note


def _first_failure(tid: str, clauses: tuple[str, ...], holds, offset: int = 0) -> TheoremReport:
    """The ascending scan over elements, read off a table: ``holds[c][a]``
    says whether clause c holds at element a.  Fail at the first a where a
    clause fails, naming a's first failing clause, with count offset + a + 1;
    pass with count offset + n."""
    holds = np.asarray(holds, dtype=bool)
    bad = _first_hit(~holds.T)
    if bad:
        a, c = bad
        return TheoremReport(tid, "fail", offset + a + 1, ((a,), clauses[c]))
    return TheoremReport(tid, "pass", offset + holds.shape[1])


def _equivalence(tid: str, conds, count: int, elements: tuple[int, ...] = ()) -> TheoremReport:
    """Pass when the conditions all agree, else fail naming them."""
    conds = tuple(bool(c) for c in conds)  # Python bools, so the clause prints True/False
    if len(set(conds)) != 1:
        return TheoremReport(tid, "fail", count, (elements, f"conditions not equivalent: {conds}"))
    return TheoremReport(tid, "pass", count)


# ---------------------------------------------------------------------------
# entries


def _check_lemma1_equiv(ring: NearRing, tid: str) -> TheoremReport:
    if ring.order > BRUTEFORCE_ISO_CAP:
        return _na(tid, f"order {ring.order} exceeds brute-force cap {BRUTEFORCE_ISO_CAP}")
    n, morphic = ring.order, element_column(ring, "morphic")
    # The search stops at the first disagreement: on a table that is not a
    # near-ring it may raise at a later element.
    first = next((a for a in range(n) if morphic[a] != _algorithm_I(ring, a)), n)
    return _first_failure(tid, ("witness scan and isomorphism search disagree",),
                          [np.arange(n) < first])


def _lemma10_map_failure(ring: NearRing, a: int, u: int) -> Optional[tuple[int, str]]:
    """The first x in (0:a) at which x -> xu is not additive (over y in
    (0:a)) or, failing that, not N-linear (over r in N); None if there is
    none."""
    add, mul = ring.add, ring.mul
    ann = np.flatnonzero(annihilator_masks(ring, "left")[a])
    xu = mul[:, u]
    not_additive = (xu[add[ann[:, None], ann]] != add[xu[ann, None], xu[ann]]).any(axis=1)
    not_linear = (xu[mul[:, ann]] != mul[:, xu[ann]]).any(axis=0)
    bad = _first_hit(np.stack([not_additive, not_linear], axis=1))
    if bad is None:
        return None
    i, c = bad
    return int(ann[i]), ("x -> xu not additive", "x -> xu not N-linear")[c]


def _check_lemma10(ring: NearRing, tid: str) -> TheoremReport:
    """For every a and unit u (inverse v): Nu = N, (0:a) = (0:av),
    (0:a)v = (0:ua), and x -> xu is injective, additive and N-linear on
    (0:a).

    The near-ring laws prove all of it once ``one`` is a two-sided identity,
    by associativity, 0*y = 0 and x*1 = x:
    - Nu = N, since x = (xv)u;
    - (0:a) = (0:av), since x(av) = (xa)v and xa = (x(av))u;
    - (0:a)v = (0:ua), since (xv)(ua) = xa, and y(ua) = 0 puts yu in (0:a)
      with y = (yu)v;
    - x -> xu is injective, since x = (xu)v;
    and right distributivity makes x -> xu additive, associativity N-linear.
    So the cell passes with n*|U| instantiations and no scan.  A table that
    breaks the laws, or a ``dataclasses.replace`` copy whose ``one`` is not
    an identity, takes the scan over (a, u) pairs.
    """
    inverse = element_column(ring, "inverse")
    us = np.flatnonzero(inverse >= 0)
    if not len(us):
        return _na(tid, "no units")
    n, mul = ring.order, ring.mul
    idx = np.arange(n)
    if laws_hold(ring) and (mul[ring.one] == idx).all() and (mul[:, ring.one] == idx).all():
        return TheoremReport(tid, "pass", n * len(us))
    anns = annihilator_masks(ring, "left")
    inv_us = inverse[us]
    clauses = ("Nu != N", "(0:a) != (0:a*u^-1)", "(0:a)u^-1 != (0:ua)",
               "x -> xu not injective")
    orbit_not_full = ~orbit_masks(ring, "left")[us].all(axis=1)
    slots = np.arange(len(us))[None, :]
    # Each (a, u) pair in (a, then u) order counts one instantiation; the
    # four set checks run for all units of one a at a time.
    for a in range(n):
        ann = np.flatnonzero(anns[a])
        translate = np.zeros((len(us), n), dtype=bool)   # row u: (0:a)u^-1
        translate[slots, mul[ann[:, None], inv_us]] = True
        image = np.zeros((len(us), n), dtype=bool)       # row u: (0:a)u
        image[slots, mul[ann[:, None], us]] = True
        failed = np.stack([orbit_not_full, (anns[a] != anns[mul[a, inv_us]]).any(axis=1),
                           (translate != anns[mul[us, a]]).any(axis=1),
                           image.sum(axis=1) != len(ann)])   # in the order of clauses
        # Right distributivity makes every x -> xu additive and associativity
        # N-linear, so the map scan over (0:a) runs only when a law fails.
        for i in np.flatnonzero(failed.any(axis=0) | (not laws_hold(ring))).tolist():
            u, count = int(us[i]), a * len(us) + i + 1
            if failed[:, i].any():
                clause = clauses[int(failed[:, i].argmax())]
                return TheoremReport(tid, "fail", count, ((a, u), clause))
            failure = _lemma10_map_failure(ring, a, u)
            if failure:
                x, clause = failure
                return TheoremReport(tid, "fail", count, ((a, u, x), clause))
    return TheoremReport(tid, "pass", n * len(us))


def _check_prop2(ring: NearRing, tid: str) -> TheoremReport:
    morphic = element_column(ring, "morphic")
    ms, us = np.flatnonzero(morphic), np.flatnonzero(element_column(ring, "inverse") >= 0)
    if not len(ms) or not len(us):
        return _na(tid, "no left morphic element / no unit")
    mul = ring.mul
    au_ok = morphic[mul[ms[:, None], us]]
    ua_ok = morphic[mul[us, ms[:, None]]]
    bad = _first_hit(~(au_ok & ua_ok))
    if bad:
        i, j = bad
        clause = "ua not left morphic" if au_ok[i, j] else "au not left morphic"
        return TheoremReport(tid, "fail", i * len(us) + j + 1,
                             ((int(ms[i]), int(us[j])), clause))
    return TheoremReport(tid, "pass", len(ms) * len(us))


def _check_prop64(ring: NearRing, tid: str) -> TheoremReport:
    ms = np.flatnonzero(element_column(ring, "morphic"))
    if not len(ms):
        return _na(tid, "no left morphic element")
    only_zero = np.arange(ring.order) == 0
    # [condition, i] at the i-th left morphic element
    conds = np.stack([(annihilator_masks(ring, "left")[ms] == only_zero).all(axis=1),
                      orbit_masks(ring, "left")[ms].all(axis=1),
                      element_column(ring, "inverse")[ms] >= 0])
    differ = _first_hit(conds.any(axis=0) != conds.all(axis=0))
    if differ:
        i, = differ
        return _equivalence(tid, conds[:, i], i + 1, (int(ms[i]),))
    return TheoremReport(tid, "pass", len(ms))


def _check_product_morphic(ring: NearRing, tid: str) -> TheoremReport:
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


def _check_ccc_decomposition(ring: NearRing, tid: str) -> TheoremReport:
    sp = structure_profile(ring)
    if not (sp.regular and sp.subcommutative):
        return _na(tid, "not a generalised near-field (regular + subcommutative)")
    n, add = ring.order, ring.add
    anns, orbits = annihilator_masks(ring, "left"), orbit_masks(ring, "left")
    # (0:a) + Na = N, one |(0:a)| x |Na| sum table at a time
    covers = [np.bincount(add[np.flatnonzero(anns[a])[:, None], np.flatnonzero(orbits[a])]
                          .ravel(), minlength=n).all() for a in range(n)]
    clauses = ("Na is not an N-ideal", "(0:a) meets Na nontrivially", "(0:a) + Na != N",
               "a not left morphic")
    return _first_failure(tid, clauses, [orbit_is_N_ideal(ring),
                                         ((anns & orbits) == (np.arange(n) == 0)).all(axis=1),
                                         covers, element_column(ring, "morphic")])


def _check_wsw_morphic(ring: NearRing, tid: str) -> TheoremReport:
    sp = structure_profile(ring)
    if not sp.weakly_divisible:
        return _na(tid, "not weakly divisible")
    return _first_failure(tid, ("element not left morphic",), [element_column(ring, "morphic")])


def _check_lemma213(ring: NearRing, tid: str) -> TheoremReport:
    sp = structure_profile(ring)
    if not sp.regular or ring.order <= 1:
        return _na(tid, "not a non-zero regular near-ring")
    if sp.reduced != sp.idempotents_central:
        witness = sp.witnesses.get("reduced") or sp.witnesses.get("idempotents_central") or ()
        return TheoremReport(tid, "fail", 2,
                             (tuple(witness), "reduced <-> idempotents central violated"))
    return TheoremReport(tid, "pass", 2)


def _check_lemma_hdt(ring: NearRing, tid: str) -> TheoremReport:
    sp = structure_profile(ring)
    return _equivalence(tid, (sp.left_strongly_regular,
                              sp.regular and sp.reduced,
                              sp.regular and sp.idempotents_central), 3)


def _check_lemma13(ring: NearRing, tid: str) -> TheoremReport:
    mul = ring.mul
    idx = np.arange(ring.order)
    # [a, x]: x*a^2 == a is the hypothesis; each (a, x) meeting it counts one
    hyp = mul[:, mul[idx, idx]].T == idx[:, None]
    not_axa = inner_products(ring) != idx[:, None]
    bad = _first_hit(hyp & (not_axa | (mul != mul.T)))
    if bad:
        a, x = bad
        count = int(hyp[:a].sum() + hyp[a, :x + 1].sum())
        return TheoremReport(tid, "fail", count,
                             ((a, x), "a != axa" if not_axa[a, x] else "ax != xa"))
    return TheoremReport(tid, "pass", int(hyp.sum()))


def _check_lemma_ffff(ring: NearRing, tid: str) -> TheoremReport:
    return _first_failure(tid, ("element not unit-regular",),
                          [element_column(ring, "unit_regular") >= 0])


def _check_prop_ff_square(ring: NearRing, tid: str) -> TheoremReport:
    regular = element_column(ring, "regular") >= 0
    return _first_failure(tid, ("a^2 not regular",), [regular[ring.mul.diagonal()]])


def _check_prop_ff_morphic(ring: NearRing, tid: str) -> TheoremReport:
    return _first_failure(tid, ("element not left morphic",), [element_column(ring, "morphic")])


def _check_lemma_this_thm217(ring: NearRing, tid: str) -> TheoremReport:
    mul, add, neg, one = ring.mul, ring.add, ring.neg.astype(np.intp), ring.one
    anns, orbits = annihilator_masks(ring, "left"), orbit_masks(ring, "left")
    morphic, idx = element_column(ring, "morphic"), np.arange(ring.order)
    # entry i of each vector is about the i-th idempotent e and ce = 1 - e
    es = np.flatnonzero(element_column(ring, "idempotent"))
    ce = add[one, neg[es]].astype(np.intp)  # an index six times below: cast once
    xe, xce = mul[:, es], mul[:, ce]  # [x, i]: xe and x(1-e)
    orthogonal = mul[es, ce] == 0
    statements = np.stack([
        morphic[es],
        (orbits[es] == anns[ce]).all(axis=1),
        (xce == add[neg[xe], idx[:, None]]).all(axis=0),
        ((anns[es] & anns[ce]) == (idx == 0)).all(axis=1) & orthogonal,
        (xce == add[idx[:, None], neg[xe]]).all(axis=0),
        (orbits[ce] == anns[es]).all(axis=1) & orthogonal,
        (mul[ce, ce] == ce) & morphic[ce]])
    # No clause 1-(1-e) = e: where all hold, the third at x = 1 gives 1-e = -e+1.
    # No clause N(1-e) = (0:e): it is half of the sixth statement.
    bad = _first_hit(statements.any(axis=0) != statements.all(axis=0))
    if bad is None:
        return TheoremReport(tid, "pass", 7 * len(es))
    i, = bad
    return TheoremReport(tid, "fail", 7 * (i + 1),
                         ((int(es[i]),),
                          f"seven statements differ: {tuple(statements[:, i].tolist())}"))


def _check_prop_cccxi(ring: NearRing, tid: str) -> TheoremReport:
    sp = structure_profile(ring)
    if not sp.boolean:
        return _na(tid, "not Boolean (some element is not idempotent)")
    conds = [("addition not commutative", ring.flags.abelian_add),
             ("not left distributive", ring.flags.left_distributive),
             ("multiplication not commutative", ring.flags.commutative_mul)]
    for count, (clause, ok) in enumerate(conds, 1):
        if not ok:
            return TheoremReport(tid, "fail", count, ((), clause))
    return _first_failure(tid, ("element not left morphic",), [element_column(ring, "morphic")], len(conds))


def _check_prop226(ring: NearRing, tid: str) -> TheoremReport:
    # structure_profile leaves left_duo undecided above this order (see there).
    if ring.order > IDEAL_ENUM_ORDER_CAP:
        return _na(tid, f"order {ring.order} exceeds ideal enumeration cap")
    sp = structure_profile(ring)
    return _equivalence(tid, (sp.reduced and sp.left_morphic,
                              sp.left_strongly_regular,
                              sp.regular and sp.left_duo), 3)


def _check_thm62(ring: NearRing, tid: str) -> TheoremReport:
    sp = structure_profile(ring)
    if not (sp.left_morphic and sp.regular):
        return _na(tid, "not a left morphic regular near-ring")
    mul, add, idx = ring.mul, ring.add, np.arange(ring.order)
    # the hypothesis gives every a a regular witness x and a morphic witness b
    x, b = element_column(ring, "regular"), element_column(ring, "morphic_witness")
    u = add[mul[mul[x, idx], x], b]  # u := xax + b
    failed = np.stack([element_column(ring, "unit_regular") < 0,
                       element_column(ring, "inverse")[u] < 0,
                       mul[mul[idx, u], idx] != idx], axis=1)
    bad = _first_hit(failed)
    if bad is None:
        return TheoremReport(tid, "pass", ring.order)
    a, c = bad
    clause = ("element not unit-regular", "u = xax+b is not a unit", "aua != a for u = xax+b")[c]
    return TheoremReport(tid, "fail", a + 1,
                         ((a,) if c == 0 else (a, int(x[a]), int(b[a])), clause))


def _check_prop_tttt(ring: NearRing, tid: str) -> TheoremReport:
    sp = structure_profile(ring)
    if not sp.has_ifp:
        return _na(tid, "near-ring does not have IFP")
    return _equivalence(tid, (sp.left_strongly_regular,
                              sp.left_morphic and sp.regular,
                              sp.unit_regular), 3)


def _check_ehrlich_T(ring: NearRing, tid: str) -> TheoremReport:
    if not ring.is_ring() or ring.one is None:
        return _na(tid, "not a unital ring")
    sp = structure_profile(ring)
    lhs = bool(sp.unit_regular)
    rhs = sp.regular and bool(sp.left_morphic)
    if lhs != rhs:
        return TheoremReport(tid, "fail", 2,
                             ((), f"unit-regular={lhs} but regular+morphic={rhs}"))
    return TheoremReport(tid, "pass", 2)


def _check_ex20_claim(ring: NearRing, tid: str) -> TheoremReport:
    if not same_tables(ring, builtin("m0_z3")):
        return _na(tid, "tables differ from the zero-fixing maps on Z3")
    sp = structure_profile(ring)
    if not sp.unit_regular:
        return TheoremReport(tid, "fail", 2, ((), "not unit-regular"))
    if sp.left_morphic:
        return TheoremReport(tid, "fail", 2, ((), "unexpectedly left morphic"))
    return TheoremReport(tid, "pass", 2)


def _check_ex20c_claim(ring: NearRing, tid: str) -> TheoremReport:
    if not ring.extension:
        return _na(tid, "not built as an R x M extension")
    base, module = ring.extension
    m_n = module.carrier.order
    mul, idx = ring.mul, np.arange(ring.order)
    a, m = np.divmod(idx, m_n)  # element <a, m>
    # <u, -um> needs a unit inner inverse u of a in R; where u is -1 the
    # element fails its first clause, so the wrapped index is never reported.
    u = element_column(base, "unit_regular")[a]
    w = u * m_n + module.carrier.neg[module.action[u, m]]
    clauses = ("base ring element has no unit inner inverse", "<u,-um> not a unit",
               "a*<u,-um>*a != a", "<a,m> with m != 0 is left morphic")
    bad = _first_hit(np.stack([u < 0, element_column(ring, "inverse")[w] < 0,
                               mul[mul[idx, w], idx] != idx,
                               (m != 0) & element_column(ring, "morphic")], axis=1))
    if bad is None:
        return TheoremReport(tid, "pass", ring.order)
    e, c = bad
    if c == 0:  # checked per base element, before its elements are counted
        return TheoremReport(tid, "fail", e, ((int(a[e]),), clauses[0]))
    return TheoremReport(tid, "fail", e + 1, ((e,) if c == 3 else (e, int(w[e])), clauses[c]))


def _check_ex_gggg_claim(ring: NearRing, tid: str) -> TheoremReport:
    if not same_tables(ring, builtin("mat2_f2")):
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


# id: (description, gate, cell)
_CATALOG: dict[str, tuple[str, Optional[Gate], Cell]] = {
    "lemma1_equiv": ("witness scan agrees with quotient isomorphism search", _unital, _check_lemma1_equiv),
    "lemma10": ("unit translation laws for orbits and annihilators", _unital, _check_lemma10),
    "prop2": ("left morphic elements are closed under unit translation", _unital, _check_prop2),
    "prop64": ("trivial annihilator, full orbit, and invertibility coincide", _unital, _check_prop64),
    "product_morphic": ("a direct product is left morphic iff every factor is", None, _check_product_morphic),
    "ccc_decomposition": ("generalised near-fields decompose as (0:a) + Na", _convention_gate, _check_ccc_decomposition),
    "wsw_morphic": ("finite weakly divisible near-rings are left morphic", _convention_gate, _check_wsw_morphic),
    "lemma213": ("regular: reduced iff idempotents central", _convention_gate, _check_lemma213),
    "lemma_hdt": ("left strongly regular iff regular+reduced iff regular+central idempotents", _convention_gate, _check_lemma_hdt),
    "lemma13": ("a = xa^2 implies a = axa and ax = xa", _lsr_gate, _check_lemma13),
    "lemma_ffff": ("left strongly regular implies unit-regular", _lsr_gate, _check_lemma_ffff),
    "prop_ff_square": ("left strongly regular: squares are regular", _lsr_gate, _check_prop_ff_square),
    "prop_ff_morphic": ("left strongly regular implies left morphic", _lsr_gate, _check_prop_ff_morphic),
    "lemma_this_thm217": ("seven equivalent characterizations of morphic idempotents", _convention_gate, _check_lemma_this_thm217),
    "prop_cccxi": ("Boolean near-rings are commutative morphic rings", _convention_gate, _check_prop_cccxi),
    "prop226": ("reduced+morphic iff left strongly regular iff regular+left duo", _convention_gate, _check_prop226),
    "thm62": ("left morphic regular implies unit-regular via u = xax+b", _convention_gate, _check_thm62),
    "prop_tttt": ("with IFP: strongly regular, morphic+regular, unit-regular coincide", _convention_gate, _check_prop_tttt),
    "ehrlich_T": ("rings: unit-regular iff regular and left morphic", None, _check_ehrlich_T),
    "ex20_claim": ("zero-fixing maps on Z3: unit-regular, not left morphic", None, _check_ex20_claim),
    "ex20c_claim": ("R x M extensions: unit-regular, never morphic off the zero section", None, _check_ex20c_claim),
    "ex_gggg_claim": ("2x2 matrices over F2: morphic regular, not duo, not strongly regular", None, _check_ex_gggg_claim),
}


def theorem_catalog() -> list[str]:
    return list(_CATALOG)


def theorem_description(theorem_id: str) -> str:
    return _CATALOG[theorem_id][0]


def check(ring: NearRing, theorem_id: str) -> TheoremReport:
    """Evaluate one entry: its gate, then its cell."""
    if theorem_id not in _CATALOG:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    _, gate, cell = _CATALOG[theorem_id]
    note = gate(ring) if gate else None
    return _na(theorem_id, note) if note else cell(ring, theorem_id)


class ChainSummary(NamedTuple):
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


class SuiteReport(NamedTuple):
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
        sp = structure_profile(ring)
        if sp.left_strongly_regular:
            lsr.append(name)
        if sp.left_morphic and sp.regular:
            lmr.append(name)
        if sp.unit_regular:
            ur.append(name)
    return SuiteReport(cells=tuple(cells),
                       chain=ChainSummary(tuple(lsr), tuple(lmr), tuple(ur)))
