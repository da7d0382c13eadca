"""Element and structure classification with explicit witnesses.

Witness tie-breaking is always the least element index, so every report is
reproducible.  The left-morphic decision has two routes: the witness scan
(find b with Na = (0:b) and Nb = (0:a)) and, as a cross-check on small
instances, a brute-force isomorphism search between N/Na and (0:a).

The scans run over whole-ring n x n bool tables from ``nmodules``: rows of
Na, aN, (0:a) and {x : ax = 0}, plus "Na is an N-ideal" for every a at once
(``orbit_is_N_ideal``, whose reduction of r to generators of (N,+) needs
right distributivity; it checks that law first and tests each orbit on its
own when the table breaks it).  The
morphic witness scan, subcommutativity (Na = aN), weak divisibility (b in
Na or a in Nb) and IFP (ab = 0 implies aN in (0:b)) compare rows of these
tables; each still reports the first witness in ascending scan order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import CapExceeded, InvariantError, NearRing, memoized, table_array
from .nmodules import (
    BRUTEFORCE_ISO_CAP,
    IDEAL_ENUM_ORDER_CAP,
    IdealVerdict,
    annihilator_masks,
    enumerate_left_ideals,
    is_ideal,
    is_N_ideal,
    left_annihilators,
    left_orbits,
    modules_isomorphic,
    orbit_is_N_ideal,
    orbit_masks,
    quotient_module,
    regular_representation,
)

CLASSIFY_ORDER_CAP = 256


class NonUnitalError(ValueError):
    """Operation needs a unity and the near-ring has none."""


@memoized
def units(ring: NearRing) -> tuple[frozenset[int], tuple[Optional[int], ...]]:
    """All two-sided invertible elements, plus the inverse table."""
    if ring.one is None:
        raise NonUnitalError("units are defined only for unital near-rings")
    is_one = table_array(ring, "mul") == ring.one
    both = is_one & is_one.T                    # [a, v]: a*v = v*a = 1
    found = both.any(axis=1).tolist()
    inv = tuple(v if ok else None for v, ok in zip(both.argmax(axis=1).tolist(), found))
    return frozenset(a for a, ok in enumerate(found) if ok), inv


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
    """
    na = left_orbits(ring)[a]
    if not is_N_ideal(regular_representation(ring), na):
        return False
    quot = quotient_module(regular_representation(ring), na)
    ann = left_annihilators(ring)[a]
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
    match = (na[:, None] == ann[None, :]) & (ann[:, None] == na[None, :])
    return [b if ok else None
            for b, ok in zip(match.argmax(axis=1).tolist(), match.any(axis=1).tolist())]


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
        verdict = is_N_ideal(regular_representation(ring), left_orbits(ring)[a])
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
    unital = ring.one is not None
    unit_set, inv = units(ring) if unital else (frozenset(), (None,) * n)
    orbit_left, orbit_right, ann_left, ann_right = (
        table.sum(axis=1).tolist()
        for table in (orbit_masks(ring, "left"), orbit_masks(ring, "right"),
                      annihilator_masks(ring, "left"), annihilator_masks(ring, "right")))
    profiles = []
    for a in range(n):
        aa = mul[a][a]
        nilp = 0
        power = a
        for k in range(1, n + 1):
            if power == 0:
                nilp = k
                break
            power = mul[power][a]
        reg = next((x for x in range(n) if mul[mul[a][x]][a] == a), None)
        lsr = next((x for x in range(n) if mul[x][aa] == a), None)
        rsr = next((x for x in range(n) if mul[aa][x] == a), None)
        ureg = next((u for u in range(n)
                     if inv[u] is not None and mul[mul[a][u]][a] == a), None)
        profiles.append(ElementProfile(
            index=a, label=ring.label(a),
            is_unit=a in unit_set if unital else None, inverse=inv[a],
            is_idempotent=aa == a,
            is_central=all(mul[a][x] == mul[x][a] for x in range(n)),
            nilpotency_index=nilp,
            is_regular=reg is not None, regular_witness=reg,
            is_unit_regular=ureg is not None if unital else None, unit_witness=ureg,
            is_left_strongly_regular=lsr is not None, lsr_witness=lsr,
            is_right_strongly_regular=rsr is not None, rsr_witness=rsr,
            morphic=is_left_morphic(ring, a) if unital else None,
            orbit_left_size=orbit_left[a],
            orbit_right_size=orbit_right[a],
            ann_left_size=ann_left[a],
            ann_right_size=ann_right[a],
        ))
    return tuple(profiles)


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
    bad = np.argwhere((table_array(ring, "mul") == 0) & (outside > 0))
    ifp = not len(bad)
    if not ifp:
        a, b = bad[0].tolist()
        x = next(x for x in range(n) if mul[mul[a][x]][b] != 0)
        witnesses["has_ifp"] = (a, x, b)

    bad = np.flatnonzero((left != right).any(axis=1))
    subcommutative = not len(bad)
    if not subcommutative:
        witnesses["subcommutative"] = (int(bad[0]),)

    bad = first(lambda p: p.is_idempotent)
    boolean = bad is None
    if bad is not None:
        witnesses["boolean"] = (bad,)

    # Weakly divisible: b in Na or a in Nb for every pair (a, b).
    bad = np.argwhere(~(left | left.T))
    weakly_divisible = not len(bad)
    if not weakly_divisible:
        witnesses["weakly_divisible"] = tuple(bad[0].tolist())

    left_duo: Optional[bool] = None
    if n <= IDEAL_ENUM_ORDER_CAP:
        left_duo = True
        for ideal in enumerate_left_ideals(ring):
            if is_ideal(ring, ideal) != "two_sided_ideal":
                left_duo = False
                bad_pair = next((l, x) for l in sorted(ideal) for x in range(n)
                                if mul[l][x] not in ideal)
                witnesses["left_duo"] = bad_pair
                witnesses["left_duo_ideal"] = tuple(sorted(ideal))
                break

    idem_central = True
    for a in range(n):
        if profiles[a].is_idempotent and not profiles[a].is_central:
            idem_central = False
            x = next(x for x in range(n) if mul[a][x] != mul[x][a])
            witnesses["idempotents_central"] = (a, x)
            break

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
