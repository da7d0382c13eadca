"""Element and structure classification with explicit witnesses.

Witness tie-breaking is always the least element index, so every report is
reproducible.  The left-morphic decision has two routes: the witness scan
(find b with Na = (0:b) and Nb = (0:a)) and, as a cross-check on small
instances, a brute-force isomorphism search between N/Na and (0:a).

The scans run over whole-ring n x n bool tables from ``nmodules``: rows of
Na, aN, (0:a) and {x : ax = 0}, plus "Na is an N-ideal" for every a at once
(``orbit_is_N_ideal``, whose reductions need the near-ring laws; it reads
``core.laws_hold``, stored by validation, and tests each orbit on its own
when the table breaks them).  The morphic witness scan, subcommutativity
(Na = aN), weak divisibility (b in Na or a in Nb) and IFP (ab = 0 implies
aN in (0:b)) compare rows of these tables; each still reports the first
witness in ascending scan order.
Left duo is decided on the principal ideals (``nmodules._ideal_closure``)
with ``right_escape``; the comment in ``structure_profile`` shows why the
first ideal that is not two-sided is a principal one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import CapExceeded, InvariantError, NearRing, _first_hit, memoized
from .nmodules import (
    BRUTEFORCE_ISO_CAP,
    IDEAL_ENUM_ORDER_CAP,
    IdealVerdict,
    _ideal_closure,
    annihilator,
    annihilator_masks,
    is_N_ideal,
    modules_isomorphic,
    orbit,
    orbit_is_N_ideal,
    orbit_masks,
    quotient_module,
    regular_representation,
    right_escape,
)

CLASSIFY_ORDER_CAP = 256


class NonUnitalError(ValueError):
    """Operation needs a unity and the near-ring has none."""


def first_true(hits: np.ndarray) -> list[Optional[int]]:
    """Per row of a 2-d bool array, the least column that is True, or None."""
    return [j if ok else None
            for j, ok in zip(hits.argmax(axis=1).tolist(), hits.any(axis=1).tolist())]


def inner_products(ring: NearRing) -> np.ndarray:
    """n x n table whose entry [a, x] is (a*x)*a."""
    return ring.mul[ring.mul, np.arange(ring.order)[:, None]]


@memoized
def units(ring: NearRing) -> tuple[frozenset[int], tuple[Optional[int], ...]]:
    """All two-sided invertible elements, plus the inverse table."""
    if ring.one is None:
        raise NonUnitalError("units are defined only for unital near-rings")
    is_one = ring.mul == ring.one
    inv = tuple(first_true(is_one & is_one.T))  # [a, v]: a*v = v*a = 1
    return frozenset(a for a, v in enumerate(inv) if v is not None), inv


def unit_mask(ring: NearRing) -> np.ndarray:
    """Bool vector: a is a unit (``units``)."""
    return np.array([v is not None for v in units(ring)[1]], dtype=bool)


@dataclass(frozen=True)
class MorphicVerdict:
    status: str  # morphic | na_not_ideal | no_witness
    witness: Optional[int] = None
    ideal_verdict: Optional[IdealVerdict] = None
    cross_checked: bool = False

    def __bool__(self) -> bool:
        return self.status == "morphic"


def _algorithm_I(ring: NearRing, a: int) -> bool:
    """Quotient construction + brute-force isomorphism search.

    Decides whether N/Na is isomorphic to (0:a) via an additive bijection
    that intertwines the quotient action with the ambient multiplication.
    On a table with 0*a != 0, (0:a) lacks 0, so it is no subgroup and no
    isomorphism exists.
    """
    na = orbit(ring, "left", a)
    if not is_N_ideal(regular_representation(ring), na):
        return False
    ann = annihilator(ring, "left", (a,))
    if 0 not in ann:
        return False
    quot = quotient_module(regular_representation(ring), na)
    return bool(modules_isomorphic(quot.module, ann, mode="bruteforce"))


@memoized
def _morphic_witnesses(ring: NearRing) -> list[Optional[int]]:
    """For every a, the least b with Na = (0:b) and Nb = (0:a), or None.

    Rows of the orbit and annihilator tables get equal labels exactly when
    they are equal sets, so both equalities become an n x n comparison of
    labels."""
    n = ring.order
    rows = np.concatenate([orbit_masks(ring, "left"), annihilator_masks(ring, "left")])
    first_seen: dict[bytes, int] = {}
    labels = np.array([first_seen.setdefault(row.tobytes(), len(first_seen)) for row in rows])
    na, ann = labels[:n], labels[n:]
    return first_true((na[:, None] == ann[None, :]) & (ann[:, None] == na[None, :]))


@memoized
def is_left_morphic(ring: NearRing, a: int, cross_check: bool = False) -> MorphicVerdict:
    """Witness scan: Na must be an N-ideal and some b must satisfy
    Na = (0:b) and Nb = (0:a); first such b wins.

    Both are read off whole-ring tables (``orbit_is_N_ideal``,
    ``_morphic_witnesses``); only an Na that is not an N-ideal goes through
    ``is_N_ideal``, for its first witness."""
    if ring.one is None:
        raise NonUnitalError("left morphic is defined only for unital near-rings")
    do_cross = cross_check and ring.order <= BRUTEFORCE_ISO_CAP
    if not orbit_is_N_ideal(ring)[a]:
        verdict = is_N_ideal(regular_representation(ring), orbit(ring, "left", a))
        if verdict:
            raise InvariantError(f"batch N-ideal test disagrees at element {a}")
        result = MorphicVerdict("na_not_ideal", ideal_verdict=verdict,
                                cross_checked=do_cross)
    else:
        b = _morphic_witnesses(ring)[a]
        result = MorphicVerdict("no_witness" if b is None else "morphic", witness=b,
                                cross_checked=do_cross)
    if do_cross:
        if _algorithm_I(ring, a) != bool(result):
            raise InvariantError(f"morphic cross-check disagrees at element {a}")
    return result


@dataclass(frozen=True)
class ElementProfile:
    index: int
    label: str
    is_unit: Optional[bool]
    inverse: Optional[int]
    is_idempotent: bool
    is_central: bool
    nilpotency_index: int  # 0 if never zero, else least k with a^k = 0
    is_regular: bool
    regular_witness: Optional[int]
    is_unit_regular: Optional[bool]
    unit_witness: Optional[int]
    is_left_strongly_regular: bool
    lsr_witness: Optional[int]
    is_right_strongly_regular: bool
    rsr_witness: Optional[int]
    morphic: Optional[MorphicVerdict]
    orbit_left_size: int
    orbit_right_size: int
    ann_left_size: int
    ann_right_size: int


def element_profile(ring: NearRing, a: int) -> ElementProfile:
    return all_element_profiles(ring)[a]


@memoized
def all_element_profiles(ring: NearRing) -> tuple[ElementProfile, ...]:
    if ring.order > CLASSIFY_ORDER_CAP:
        raise CapExceeded(f"classification limited to order {CLASSIFY_ORDER_CAP}")
    n, mul = ring.order, ring.mul
    idx = np.arange(n)
    unital = ring.one is not None
    unit_set, inv = units(ring) if unital else (frozenset(), (None,) * n)
    is_unit = unit_mask(ring) if unital else np.zeros(n, dtype=bool)
    orbit_left, orbit_right, ann_left, ann_right = (
        table.sum(axis=1).tolist()
        for table in (orbit_masks(ring, "left"), orbit_masks(ring, "right"),
                      annihilator_masks(ring, "left"), annihilator_masks(ring, "right")))
    aa = mul[idx, idx]
    nilpotency = np.zeros(n, dtype=np.int64)  # least k <= n with a^k = 0, else 0
    power = idx
    for k in range(1, n + 1):
        nilpotency[(power == 0) & (nilpotency == 0)] = k
        power = mul[power, idx]
    # [a, x] tables; each witness is the least x that satisfies the row
    regular = inner_products(ring) == idx[:, None]      # (a*x)*a == a
    reg = first_true(regular)
    ureg = first_true(regular & is_unit)
    lsr = first_true(mul[:, aa].T == idx[:, None])      # x*(a*a) == a
    rsr = first_true(mul[aa] == idx[:, None])           # (a*a)*x == a
    idempotent, central = (aa == idx).tolist(), (mul == mul.T).all(axis=1).tolist()
    nilpotency = nilpotency.tolist()
    return tuple(
        ElementProfile(
            index=a, label=ring.label(a),
            is_unit=a in unit_set if unital else None, inverse=inv[a],
            is_idempotent=idempotent[a], is_central=central[a],
            nilpotency_index=nilpotency[a],
            is_regular=reg[a] is not None, regular_witness=reg[a],
            is_unit_regular=ureg[a] is not None if unital else None, unit_witness=ureg[a],
            is_left_strongly_regular=lsr[a] is not None, lsr_witness=lsr[a],
            is_right_strongly_regular=rsr[a] is not None, rsr_witness=rsr[a],
            morphic=is_left_morphic(ring, a) if unital else None,
            orbit_left_size=orbit_left[a],
            orbit_right_size=orbit_right[a],
            ann_left_size=ann_left[a],
            ann_right_size=ann_right[a],
        ) for a in range(n))


@dataclass(frozen=True)
class StructureProfile:
    zero_symmetric: bool
    abelian_add: bool
    is_ring: bool
    is_near_field: bool
    reduced: bool
    has_ifp: bool
    subcommutative: bool
    boolean: bool
    weakly_divisible: bool
    left_duo: Optional[bool]  # None when the order exceeds the enumeration cap
    idempotents_central: bool
    regular: bool
    unit_regular: Optional[bool]
    left_strongly_regular: bool
    right_strongly_regular: bool
    left_morphic: Optional[bool]
    generalised_near_field: bool
    witnesses: dict = field(default_factory=dict, compare=False)

    def verdict(self) -> str:
        """One-line class membership summary."""
        if self.left_strongly_regular:
            return "left strongly regular"
        if self.left_morphic and self.regular:
            return "left morphic regular"
        if self.unit_regular:
            return "unit-regular but not left morphic"
        if self.regular:
            return "regular"
        return "not regular"


@memoized
def structure_profile(ring: NearRing) -> StructureProfile:
    n, mul = ring.order, ring.mul
    profiles = all_element_profiles(ring)
    unital = ring.one is not None
    witnesses: dict = {}

    def first(pred):
        return next((a for a in range(n) if not pred(profiles[a])), None)

    if not ring.flags.zero_symmetric:
        witnesses["zero_symmetric"] = dict(ring.flag_witnesses)["zero_symmetric"]
    if not ring.flags.abelian_add:
        witnesses["abelian_add"] = dict(ring.flag_witnesses)["abelian_add"]
    if not ring.is_ring():
        wd = dict(ring.flag_witnesses)
        witnesses["is_ring"] = wd.get("abelian_add") or wd.get("left_distributive")

    near_field = unital and all(p.is_unit for p in profiles[1:]) and n > 1
    if unital and not near_field:
        bad = next((a for a in range(1, n) if not profiles[a].is_unit), None)
        if bad is not None:
            witnesses["is_near_field"] = (bad,)

    bad = next((a for a in range(1, n) if profiles[a].nilpotency_index > 0), None)
    reduced = bad is None
    if bad is not None:
        witnesses["reduced"] = (bad,)

    left, right = orbit_masks(ring, "left"), orbit_masks(ring, "right")
    # IFP: ab = 0 implies aNb = 0, i.e. aN lies in (0:b).  The first (a, b)
    # in row-major order that breaks it, then the least x with (ax)b != 0.
    outside = right.astype(np.int32) @ (~annihilator_masks(ring, "left")).T.astype(np.int32)
    bad = _first_hit((mul == 0) & (outside > 0))
    ifp = bad is None
    if not ifp:
        a, b = bad
        x, = _first_hit(mul[mul[a], b] != 0)
        witnesses["has_ifp"] = (a, x, b)

    bad = _first_hit((left != right).any(axis=1))
    subcommutative = bad is None
    if not subcommutative:
        witnesses["subcommutative"] = bad

    bad = first(lambda p: p.is_idempotent)
    boolean = bad is None
    if bad is not None:
        witnesses["boolean"] = (bad,)

    # Weakly divisible: b in Na or a in Nb for every pair (a, b).
    bad = _first_hit(~(left | left.T))
    weakly_divisible = bad is None
    if not weakly_divisible:
        witnesses["weakly_divisible"] = bad

    # Left duo: every N-ideal L of the regular representation has LN in L.
    # If l*x escapes L for some l in L, it escapes the principal ideal
    # P(l), which lies in L; so a smallest failing L contains a failing
    # P(l), and |P(l)| <= |L| forces P(l) = L.  The first failing ideal in
    # (size, members) order is therefore the first failing principal one.
    # The order gate stays: perfbench/oracle.py and the recorded seed-1
    # digests expect left_duo to be null above it, so lifting it is an
    # output change of its own.
    left_duo: Optional[bool] = None
    if n <= IDEAL_ENUM_ORDER_CAP:
        principal = {tuple(np.flatnonzero(_ideal_closure(ring, a)).tolist()) for a in range(n)}
        failing = min((p for p in principal if right_escape(ring, p)),
                      key=lambda p: (len(p), p), default=None)
        left_duo = failing is None
        if not left_duo:
            witnesses["left_duo"] = right_escape(ring, failing)
            witnesses["left_duo_ideal"] = failing

    bad = first(lambda p: not p.is_idempotent or p.is_central)
    idem_central = bad is None
    if not idem_central:
        x, = _first_hit(mul[bad] != mul[:, bad])
        witnesses["idempotents_central"] = (bad, x)

    for flag_name, pred in (
        ("regular", lambda p: p.is_regular),
        ("left_strongly_regular", lambda p: p.is_left_strongly_regular),
        ("right_strongly_regular", lambda p: p.is_right_strongly_regular),
    ):
        bad = first(pred)
        if bad is not None:
            witnesses[flag_name] = (bad,)
    regular = "regular" not in witnesses
    lsr = "left_strongly_regular" not in witnesses
    rsr = "right_strongly_regular" not in witnesses

    unit_regular: Optional[bool] = None
    left_morphic: Optional[bool] = None
    if unital:
        bad = first(lambda p: p.is_unit_regular)
        unit_regular = bad is None
        if bad is not None:
            witnesses["unit_regular"] = (bad,)
        bad = first(lambda p: bool(p.morphic))
        left_morphic = bad is None
        if bad is not None:
            witnesses["left_morphic"] = (bad,)

    return StructureProfile(
        zero_symmetric=ring.flags.zero_symmetric,
        abelian_add=ring.flags.abelian_add,
        is_ring=ring.is_ring(),
        is_near_field=near_field,
        reduced=reduced,
        has_ifp=ifp,
        subcommutative=subcommutative,
        boolean=boolean,
        weakly_divisible=weakly_divisible,
        left_duo=left_duo,
        idempotents_central=idem_central,
        regular=regular,
        unit_regular=unit_regular,
        left_strongly_regular=lsr,
        right_strongly_regular=rsr,
        left_morphic=left_morphic,
        generalised_near_field=regular and subcommutative,
        witnesses=witnesses,
    )
