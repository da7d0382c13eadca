"""Left N-module machinery: annihilators, orbits, N-ideals, quotients, homs.

Subsets of a carrier are plain frozensets of element indices.  An N-ideal L
of a module M is a normal subgroup of (M,+) with r(l+m) - rm in L for all
r, l, m; these are exactly the kernels that admit quotient modules.

The N-ideal layer works over generating sets, with exact reductions:

- ``is_N_ideal`` checks L + L in L on all pairs, then normality and the
  N-ideal condition over a greedy generating set S_L of the subgroup L.
  Normality needs only x in gens(M) and l in S_L: conjugation by x is an
  endomorphism, so it maps L = <S_L> into L once it maps S_L there, and the
  x that normalise L form a subgroup.  The N-ideal condition needs only
  l in S_L, since the l that satisfy it are closed under +:
  r((l1+l2)+m) - rm = [r(l1+(l2+m)) - r(l2+m)] + [r(l2+m) - rm].
  When a reduced check fails, that stage's exhaustive scan runs for the
  first witness in ascending scan order.
- ``_ideal_closure`` keeps its set closed under + semi-naively and sends
  only the generators it adds through the conjugate and r(l+m) - rm rules,
  which the same two arguments make enough.
- ``enumerate_left_ideals`` closes each singleton once, then saturates
  "ideal + principal ideal".  By the identity above the sum L1 + L2 of two
  N-ideals is an N-ideal, hence their join, and every N-ideal is the sum of
  the principal ideals of its elements.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import (CapExceeded, FiniteGroup, InvariantError, NearRing, _extend_closure,
                   _generators, group_generators, memoized, table_array, validate_group)

BRUTEFORCE_ISO_CAP = 8
IDEAL_ENUM_ORDER_CAP = 64


@dataclass(frozen=True)
class NModule:
    """Finite left N-module: carrier group plus an n x m action table."""

    ring: NearRing
    carrier: FiniteGroup
    action: tuple[tuple[int, ...], ...]
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class IdealVerdict:
    kind: str  # not_subgroup | not_normal | not_N_ideal | N_ideal
    witness: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.kind == "N_ideal"


def validate_module(ring: NearRing, carrier: FiniteGroup, action) -> NModule:
    """Check both module laws (and unitarity when the ring is unital)."""
    n, m = ring.order, carrier.order
    action = tuple(tuple(row) for row in action)
    if len(action) != n or any(len(row) != m for row in action):
        raise ValueError(f"action table must be {n}x{m}")
    module = NModule(ring=ring, carrier=carrier, action=action)
    act = table_array(module, "action")
    radd = table_array(ring.group, "add")
    madd = table_array(carrier, "add")
    rmul = table_array(ring, "mul")
    for r1 in range(n):
        # (r1+r2)m == r1 m + r2 m
        lhs = act[radd[r1], :]
        rhs = madd[np.broadcast_to(act[r1], (n, m)), act]
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
        for x in range(m):
            if action[ring.one][x] != x:
                raise ValueError(f"module is not unitary at m={x}")
    return module


@memoized
def regular_representation(ring: NearRing) -> NModule:
    """N acting on itself by left multiplication; action table is mul."""
    rep = NModule(ring=ring, carrier=ring.group, action=ring.mul)
    table_array.keep(rep, table_array(ring, "mul"), "action")
    return rep


def annihilator(ring: NearRing, side: str, subset) -> frozenset[int]:
    """Left: {x : x*s = 0 for all s}; right: {x : s*x = 0 for all s}."""
    members = sorted(subset)
    if not members:
        raise ValueError("annihilator of the empty set is not defined")
    mul = ring.mul
    if side == "left":
        return frozenset(x for x in range(ring.order)
                         if all(mul[x][s] == 0 for s in members))
    if side == "right":
        return frozenset(x for x in range(ring.order)
                         if all(mul[s][x] == 0 for s in members))
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def orbit(ring: NearRing, side: str, a: int) -> frozenset[int]:
    """Left: Na = {n*a}; right: aN = {a*n}."""
    mul = ring.mul
    if side == "left":
        return frozenset(mul[n][a] for n in range(ring.order))
    if side == "right":
        return frozenset(mul[a][n] for n in range(ring.order))
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@memoized
def left_annihilators(ring: NearRing) -> tuple[frozenset[int], ...]:
    return tuple(annihilator(ring, "left", {a}) for a in range(ring.order))


@memoized
def left_orbits(ring: NearRing) -> tuple[frozenset[int], ...]:
    return tuple(orbit(ring, "left", a) for a in range(ring.order))


def _subgroup_generators(add: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Greedy generating set of the subgroup ``members`` (ascending, 0 first)
    of a group with addition table ``add``, from its relabelled sub-table."""
    pos = np.zeros(len(add), dtype=np.int64)
    pos[members] = np.arange(len(members))
    return members[_generators(pos[add[np.ix_(members, members)]])]


def is_N_ideal(module: NModule, subset) -> IdealVerdict:
    """Decide the three conditions in order: subgroup, normal, N-ideal.

    The witness is the first failure in ascending scan order.  Normality and
    the N-ideal condition are checked over generators (module docstring);
    when a reduced check fails, that stage's full scan finds the witness.
    """
    members = sorted(subset)
    in_l = np.zeros(module.carrier.order, dtype=bool)
    in_l[members] = True
    if not members or not in_l[0]:
        return IdealVerdict("not_subgroup", (0,))
    madd = table_array(module.carrier, "add")
    mneg = table_array(module.carrier, "neg")
    mem = np.array(members, dtype=np.int64)
    bad = np.argwhere(~in_l[madd[np.ix_(mem, mem)]])
    if len(bad):
        i, j = bad[0]
        return IdealVerdict("not_subgroup", (members[i], members[j]))
    gens_l = _subgroup_generators(madd, mem)
    gens_m = group_generators(module.carrier)
    if not in_l[madd[madd[np.ix_(gens_m, gens_l)], mneg[gens_m][:, None]]].all():
        bad = np.argwhere(~in_l[madd[madd[:, mem], mneg[:, None]]])  # x + l - x
        if not len(bad):
            raise InvariantError("normality fails on generators but on no pair (x, l)")
        x, i = bad[0]
        return IdealVerdict("not_normal", (int(x), members[i]))
    act = table_array(module, "action")
    minus_rm = mneg[act]                                        # (n, m): -rm
    shifted = act[:, madd[gens_l, :]]                           # (n, |S_L|, m): r(l+m)
    if in_l[madd[shifted, minus_rm[:, None, :]]].all():
        return IdealVerdict("N_ideal")
    for r in range(module.ring.order):
        shifted = act[r, madd[mem, :]]                          # (|L|, m): r(l+m)
        bad = np.argwhere(~in_l[madd[shifted, minus_rm[r][None, :]]])
        if len(bad):
            li, x = bad[0]
            return IdealVerdict("not_N_ideal", (r, int(members[li]), int(x)))
    raise InvariantError("N-ideal condition fails on generators but on no (r, l, m)")


def is_ideal(ring: NearRing, subset) -> str:
    """'left_ideal' iff an N-ideal of the regular representation;
    'two_sided_ideal' additionally requires LN contained in L."""
    verdict = is_N_ideal(regular_representation(ring), subset)
    if not verdict:
        return "not_left_ideal"
    in_l = frozenset(subset)
    for l in sorted(in_l):
        for x in range(ring.order):
            if ring.mul[l][x] not in in_l:
                return "left_ideal"
    return "two_sided_ideal"


def _ideal_closure(ring: NearRing, a: int) -> np.ndarray:
    """Bool mask of the smallest N-ideal of the regular representation
    containing ``a``.

    The set is kept closed under + (``core._extend_closure``), so it is a
    subgroup, and only the elements added as its generators go through the
    conjugate and r(l+m) - rm rules: the reductions of ``is_N_ideal`` make
    that enough.
    """
    add = table_array(ring.group, "add")
    neg = table_array(ring.group, "neg")
    mul = table_array(ring, "mul")
    minus_rm = neg[mul]
    reached = np.zeros(ring.order, dtype=bool)
    reached[0] = True
    wanted = reached.copy()
    wanted[a] = True
    while not (wanted <= reached).all():
        g = int((wanted & ~reached).argmax())
        _extend_closure(add, reached, g)
        wanted[add[add[:, g], neg]] = True                  # x + g - x
        wanted[add[mul[:, add[g, :]], minus_rm]] = True     # r(g+m) - rm
    return reached


def enumerate_left_ideals(ring: NearRing, cap: Optional[int] = None) -> list[frozenset[int]]:
    """All N-ideals of the regular representation; ascending by size then
    lexicographic.

    Every N-ideal is the sum of the principal ideals of its elements, and a
    sum of N-ideals is one (module docstring), so the ideals are the
    principal ones closed under "+ principal ideal", saturated from a frontier.
    """
    if ring.order > IDEAL_ENUM_ORDER_CAP:
        raise CapExceeded(f"ideal enumeration limited to order {IDEAL_ENUM_ORDER_CAP}")
    add = table_array(ring.group, "add")
    found: dict[bytes, np.ndarray] = {}

    def insert(mask: np.ndarray) -> bool:
        key = mask.tobytes()
        if key in found:
            return False
        found[key] = mask
        if cap is not None and len(found) > cap:
            raise CapExceeded(f"ideal count exceeds cap {cap} ({len(found)} found so far)")
        return True

    principal = []  # (a, members of the ideal a generates), one per distinct ideal
    for a in range(ring.order):
        mask = _ideal_closure(ring, a)
        if insert(mask):
            principal.append((a, np.flatnonzero(mask)))
    frontier = list(found.values())
    while frontier:
        grown = []
        for ideal in frontier:
            members = np.flatnonzero(ideal)
            for a, gen in principal:
                if ideal[a]:  # the principal ideal of a lies inside
                    continue
                mask = np.zeros(ring.order, dtype=bool)
                mask[add[np.ix_(members, gen)]] = True
                if insert(mask):
                    grown.append(mask)
        frontier = grown
    ideals = [frozenset(np.flatnonzero(mask).tolist()) for mask in found.values()]
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class Quotient:
    """Factor module M/L with coset representatives = least member index."""

    module: NModule
    projection: tuple[int, ...]       # ambient index -> quotient index
    representatives: tuple[int, ...]  # quotient index -> ambient representative


def quotient_module(module: NModule, subset) -> Quotient:
    verdict = is_N_ideal(module, subset)
    if not verdict:
        raise ValueError(f"subset is not an N-ideal: {verdict.kind} at {verdict.witness}")
    members = sorted(subset)
    madd = module.carrier.add
    m_n = module.carrier.order
    rep_of = [min(madd[x][l] for l in members) for x in range(m_n)]
    reps = sorted(set(rep_of))
    q_index = {rep: i for i, rep in enumerate(reps)}
    proj = tuple(q_index[rep_of[x]] for x in range(m_n))
    q = len(reps)
    qadd = [[proj[madd[reps[i]][reps[j]]] for j in range(q)] for i in range(q)]
    qlabels = None
    if module.carrier.labels:
        qlabels = tuple(f"{module.carrier.label(r)}+L" for r in reps)
    carrier = validate_group(qadd, labels=qlabels)
    qact = [[proj[module.action[r][reps[i]]] for i in range(q)]
            for r in range(module.ring.order)]
    # Well-definedness: the action must not depend on the representative.
    for r in range(module.ring.order):
        for x in range(m_n):
            if proj[module.action[r][x]] != qact[r][proj[x]]:
                raise InvariantError("quotient action depends on coset representative "
                                     f"at (r, m) = ({r}, {x})")
    return Quotient(
        module=NModule(ring=module.ring, carrier=carrier,
                       action=tuple(tuple(row) for row in qact)),
        projection=proj,
        representatives=tuple(reps),
    )


# ---------------------------------------------------------------------------
# homomorphisms and isomorphisms
#
# A target can be a genuine NModule, or a subgroup of (N,+) viewed inside the
# regular representation (the shape of annihilator sets).  In the embedded
# case the action is the ambient multiplication, which may leave the subset;
# a hom must then map into the subset anyway, so such pairs simply fail.


class _Target:
    def __init__(self, ring: NearRing, obj: Union[NModule, frozenset, set]):
        self.ring = ring
        if isinstance(obj, NModule):
            self.elements = list(range(obj.carrier.order))
            self.zero = 0
            self._add = obj.carrier.add
            self._act = obj.action
            self._members = None
        else:
            members = frozenset(obj)
            if 0 not in members:
                raise ValueError("embedded target must contain 0")
            self.elements = sorted(members)
            self.zero = 0
            self._add = ring.add
            self._act = ring.mul
            self._members = members

    def add(self, x: int, y: int) -> Optional[int]:
        v = self._add[x][y]
        if self._members is not None and v not in self._members:
            return None
        return v

    def act(self, r: int, x: int) -> Optional[int]:
        v = self._act[r][x]
        if self._members is not None and v not in self._members:
            return None
        return v


@dataclass(frozen=True)
class HomResult:
    hom: Optional[tuple[int, ...]]  # M1 index -> target element, or None
    failure: Optional[str] = None
    failure_elements: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.hom is not None


def generated_submodule(module: NModule, g: int) -> frozenset[int]:
    """Closure of {g} under the action and subgroup generation."""
    madd = module.carrier.add
    seen = {0, g}
    frontier = [0, g]
    while frontier:
        x = frontier.pop()
        for r in range(module.ring.order):
            v = module.action[r][x]
            if v not in seen:
                seen.add(v)
                frontier.append(v)
        for y in list(seen):
            for v in (madd[x][y], madd[y][x]):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        v = module.carrier.neg[x]
        if v not in seen:
            seen.add(v)
            frontier.append(v)
    return frozenset(seen)


def hom_from_cyclic_generator(module: NModule, g: int, target, b: int) -> HomResult:
    """The unique additive N-linear map sending g to b, if well defined.

    ``target`` is an NModule over the same ring or a frozenset embedded in
    the regular representation.  Failure names the violated relation.
    """
    ring = module.ring
    tv = target if isinstance(target, _Target) else _Target(ring, target)
    m_n = module.carrier.order
    if len(generated_submodule(module, g)) != m_n:
        raise ValueError(f"element {g} does not generate the module")
    if b not in tv.elements:
        return HomResult(None, "image_not_in_target", (b,))
    image: dict[int, int] = {0: tv.zero, g: b}
    if image.get(0) != tv.zero:
        return HomResult(None, "zero_relation", (0,))
    changed = True
    while changed:
        changed = False
        for x, y in sorted(image.items()):
            for r in range(ring.order):
                x2 = module.action[r][x]
                y2 = tv.act(r, y)
                if y2 is None:
                    return HomResult(None, "action_escapes_target", (r, x))
                if x2 in image:
                    if image[x2] != y2:
                        return HomResult(None, "action_relation", (r, x, x2))
                else:
                    image[x2] = y2
                    changed = True
            for x2, y2 in sorted(image.items()):
                x3 = module.carrier.add[x][x2]
                y3 = tv.add(y, y2)
                if y3 is None:
                    return HomResult(None, "sum_escapes_target", (x, x2))
                if x3 in image:
                    if image[x3] != y3:
                        return HomResult(None, "sum_relation", (x, x2, x3))
                else:
                    image[x3] = y3
                    changed = True
    if len(image) != m_n:
        raise InvariantError(f"closure from generator {g} reached {len(image)} of {m_n} elements")
    return HomResult(hom=tuple(image[x] for x in range(m_n)))


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    witness: Optional[tuple[int, ...]] = None  # M1 index -> target element

    def __bool__(self) -> bool:
        return self.isomorphic


def _is_bijection_onto(hom: tuple[int, ...], tv: _Target) -> bool:
    return len(set(hom)) == len(hom) == len(tv.elements)


def _cyclic_generator(module: NModule) -> Optional[int]:
    """The least element that generates the module, or None if it is not cyclic."""
    m_n = module.carrier.order
    return next((g for g in range(m_n) if len(generated_submodule(module, g)) == m_n), None)


def _iso_generator(module: NModule, tv: _Target, gen: int) -> IsoResult:
    for b in tv.elements:
        res = hom_from_cyclic_generator(module, gen, tv, b)
        if res and _is_bijection_onto(res.hom, tv):
            return IsoResult(True, res.hom)
    return IsoResult(False)


def _iso_bruteforce(module: NModule, tv: _Target) -> IsoResult:
    m_n = module.carrier.order
    if m_n != len(tv.elements):
        return IsoResult(False)
    if m_n > BRUTEFORCE_ISO_CAP:
        raise CapExceeded(f"bruteforce isomorphism limited to |M| <= {BRUTEFORCE_ISO_CAP}")
    others = [e for e in tv.elements if e != tv.zero]
    madd = module.carrier.add
    for perm in itertools.permutations(others):
        hom = (tv.zero,) + perm
        ok = True
        for x in range(m_n):
            for y in range(m_n):
                if tv.add(hom[x], hom[y]) != hom[madd[x][y]]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for r in range(module.ring.order):
            for x in range(m_n):
                if tv.act(r, hom[x]) != hom[module.action[r][x]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return IsoResult(True, hom)
    return IsoResult(False)


def modules_isomorphic(module: NModule, target, mode: str = "auto") -> IsoResult:
    """Does an additive N-linear bijection exist from ``module`` onto ``target``?

    generator: image of a cyclic generator determines the map (any order).
    bruteforce: scan all bijections fixing 0 (|M| <= 8).
    auto: generator when the module is cyclic, else bruteforce.
    """
    tv = _Target(module.ring, target)
    if mode == "bruteforce":
        return _iso_bruteforce(module, tv)
    if mode not in ("generator", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    gen = _cyclic_generator(module)
    if gen is not None:
        return _iso_generator(module, tv, gen)
    if mode == "generator":
        raise ValueError("module is not cyclic; generator mode does not apply")
    if module.carrier.order <= BRUTEFORCE_ISO_CAP:
        return _iso_bruteforce(module, tv)
    raise CapExceeded("module is not cyclic and exceeds the bruteforce cap")
