"""Left N-module machinery: annihilators, orbits, N-ideals, quotients, homs.

Subsets are collections of element indices, checked once: each must be an
integer (not a bool) in [0, order), else ``ValueError``.  An N-ideal L of a
module M is a normal subgroup of (M,+) with r(l+m) - rm in L for all r, l,
m; these are exactly the kernels that admit quotient modules.

The two module laws are ``core``'s row functions ``_additive`` and
``_assoc``, the same ones that validate a near-ring as its regular
representation.  ``validate_module`` scans both over every row r, since
modules are small and the scan stays exact for any ring.

The N-ideal layer works over generating sets, with exact reductions:

- ``is_N_ideal`` runs the stage scans (``_stage_scans``): L + L in L on
  all pairs, then normality over every x of M and the N-ideal condition
  over every r of N, row by row with l over a greedy generating set S_L of
  L only.  A row passes on S_L iff it passes on L: conjugation by x is an
  endomorphism, so it maps L = <S_L> into L once it maps S_L there, and the
  l that satisfy the N-ideal condition for one r are closed under +:
  r((l1+l2)+m) - rm = [r(l1+(l2+m)) - r(l2+m)] + [r(l2+m) - rm].
  So the first failing row is the exhaustive scan's; its first witness is
  read over all of L.  ``_orbit_verdict`` memoises them on each orbit
  that the batch rules of ``orbit_is_N_ideal`` do not accept.
- ``_ideal_closure`` closes a seed set to the smallest N-ideal containing
  it.  It keeps its set closed under + semi-naively and sends only the
  generators it adds through the conjugate and r(l+m) - rm rules, which
  the same two arguments make enough.
- ``principal_ideals`` holds P(a), the smallest N-ideal containing a, for
  every a (reductions below).  Its distinct rows decide left duo in
  ``classify.structure_profile``, with no enumeration.
- ``enumerate_left_ideals`` starts from the principal ideals, then
  saturates "ideal + principal ideal".  By the identity above the sum
  L1 + L2 of two N-ideals is an N-ideal, hence their join, and every
  N-ideal is the sum of the principal ideals of its elements.

Orbits and annihilators of a near-ring are read off memoised n x n bool
tables (``orbit_masks``, ``annihilator_masks``); a subset's annihilator is
the AND of its members' rows.  ``orbit_is_N_ideal`` decides "Na is an
N-ideal" once per distinct orbit, R of them, in O(|S| |movers| R n) over a
generating set S of (N,+) plus one stage scan per rejected orbit, by three
more reductions that hold only when the near-ring laws do, i.e. for the
regular representation of a near-ring (the movers are the generators whose
row is not an endomorphism):

- Na = {n*a} is the subgroup generated by {s*a : s in S}, since
  n -> n*a is an endomorphism of (N,+);
- for a normal L, the r with r(l+m) - rm in L for all l, m are closed
  under +: (r1+r2)(l+m) - (r1+r2)m = [r1(l+m) - r1m] + [r1m + t - r1m]
  with t = r2(l+m) - r2m, so r needs to range over S only;
- a generator r whose row is an endomorphism of (N,+) needs no check:
  r(l+m) - rm = rl = r(s*a) = (r*s)*a, in Na.  So only the S rows are
  tested, over S (``core._left_dist``, O(|S|^2 n)); on a ring every row
  is an endomorphism, and only the normality check is left.

A principal ideal P(a) depends, under the laws, only on the set N0*a,
N0 = {x : x*0 = 0}.  In a right near-ring 0*z = 0, so for any r the
constant c = r*0 satisfies c*z = r*(0*z) = c, and r0 = r - c lies in N0
with r*l = r0*l + c.  Taking m = 0 in the N-ideal condition, every N-ideal
containing a contains r*a - r*0 = r0*a for every r, i.e. N0*a.  So where a
is in N0*a (always, with a unity, since 1 is in N0), P(a) is the smallest
N-ideal containing the set N0*a, and one closure serves every element with
that set.  On a zero-symmetric ring N0*a = Na, and P(a) = Na with no
closure wherever Na is an N-ideal.  An element outside its N0*a gets a
closure of its own.

A near-ring built without validation need not satisfy the laws, so
``orbit_is_N_ideal`` and ``principal_ideals`` read ``core.laws_hold``
(stored by validation, computed in O(|S| n^2) on any other ring).  When
the laws fail, the batch rules accept no orbit, so the stage scans decide
each one, and ``principal_ideals`` closes every element on its own.
``is_N_ideal`` takes arbitrary actions, so it keeps r over all of N; its
reductions over S_L need only the group laws of M.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .core import (CapExceeded, FiniteGroup, InvariantError, NearRing, _additive, _assoc,
                   _check_table, _extend_closure, _first_hit, _first_witness, _generators,
                   _left_dist, _row_classes, _seal, _Tables, group_generators, laws_hold,
                   memoized, validate_group)

BRUTEFORCE_ISO_CAP = 8
IDEAL_ENUM_ORDER_CAP = 64


@dataclass(frozen=True, eq=False)
class NModule(_Tables):
    """Finite left N-module: carrier group plus an n x m action table."""

    _TABLES = ("action",)

    ring: NearRing
    carrier: FiniteGroup
    action: np.ndarray


class IdealVerdict(NamedTuple):
    kind: str  # not_subgroup | not_normal | not_N_ideal | N_ideal
    witness: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.kind == "N_ideal"


def validate_module(ring: NearRing, carrier: FiniteGroup, action) -> NModule:
    """Check both module laws (and unitarity when the ring is unital).

    The laws are scanned together, row r1 by row r1 ascending and additivity
    before associativity within a row, so the error names the first failure
    (r1, r2, m) in that order."""
    n, m = ring.order, carrier.order
    act = _check_table(action, n, m, "action table")
    laws = (("additivity", _additive(ring.add, act, carrier.add)),
            ("associativity", _assoc(ring.mul, act)))
    for r1 in range(n):
        for law, first in laws:
            hit = first(r1)
            if hit:
                raise ValueError(f"{law} fails at (r1,r2,m)=({r1},{hit[0]},{hit[1]})")
    if ring.one is not None:
        bad = _first_hit(act[ring.one] != np.arange(m))
        if bad:
            raise ValueError(f"module is not unitary at m={bad[0]}")
    return NModule(ring=ring, carrier=carrier, action=act)


@memoized
def regular_representation(ring: NearRing) -> NModule:
    """N acting on itself by left multiplication; action table is mul."""
    return NModule(ring=ring, carrier=ring.group, action=ring.mul)


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@memoized
def orbit_masks(ring: NearRing, side: str) -> np.ndarray:
    """Read-only n x n bool table whose row a is Na (left) or aN (right)."""
    _check_side(side)
    mul = ring.mul
    idx = np.arange(ring.order)
    masks = np.zeros((ring.order, ring.order), dtype=bool)
    if side == "left":
        masks[idx[None, :], mul] = True     # row a gets n*a for every n
    else:
        masks[idx[:, None], mul] = True     # row a gets a*n for every n
    return _seal(masks)


@memoized
def orbit_classes(ring: NearRing) -> np.ndarray:
    """Read-only vector: per a, the least b with Nb = Na, so that a fact
    about the set Na is decided once per distinct orbit."""
    return _seal(_row_classes(np.packbits(orbit_masks(ring, "left"), axis=1)))


@memoized
def annihilator_masks(ring: NearRing, side: str) -> np.ndarray:
    """Read-only n x n bool table whose row a is (0:a) = {x : x*a = 0} (left)
    or {x : a*x = 0} (right)."""
    _check_side(side)
    zero = ring.mul == 0
    masks = np.ascontiguousarray(zero.T) if side == "left" else zero
    return _seal(masks)


def _members(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def _index(order: int, x) -> int:
    """``x`` as a Python int, if it is an integer (not a bool) in [0, order)."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < order:
        raise ValueError(f"element index {x!r} is not an integer in [0,{order})")
    return int(x)


def _index_mask(order: int, subset) -> np.ndarray:
    """Bool mask of element indices, each checked by ``_index``."""
    mask = np.zeros(order, dtype=bool)
    for x in subset:
        mask[_index(order, x)] = True
    return mask


def annihilator(ring: NearRing, side: str, subset) -> frozenset[int]:
    """Left: {x : x*s = 0 for all s}; right: {x : s*x = 0 for all s}."""
    in_s = _index_mask(ring.order, subset)
    if not in_s.any():
        raise ValueError("annihilator of the empty set is not defined")
    return _members(annihilator_masks(ring, side)[in_s].all(axis=0))


def orbit(ring: NearRing, side: str, a: int) -> frozenset[int]:
    """Left: Na = {n*a}; right: aN = {a*n}."""
    return _members(orbit_masks(ring, side)[_index(ring.order, a)])


@memoized
def orbit_is_N_ideal(ring: NearRing) -> np.ndarray:
    """Bool vector whose entry a says whether Na is an N-ideal of the regular
    representation.  That depends only on the set Na, so one pass runs over
    the first element of each class of ``orbit_classes``, its representative:

    1. Accept.  When ``core.laws_hold``, the batch rules (module docstring)
       accept orbits on the R representative rows.  A representative a'
       stands for every a with Na = Na': under the laws x -> x*a' is
       additive, so {s*a' : s in S} generates Na' = Na.  On a table that
       breaks the laws they accept nothing.
    2. Reject.  Each representative not accepted gets its ``_orbit_verdict``.
       Under the laws the rules are exact, so scans that find no witness
       raise ``InvariantError``; on other tables they accept the orbit.
    3. Spread.  The class labels carry the verdicts back to the elements.
    """
    n, add, neg, mul = ring.order, ring.add, ring.neg, ring.mul
    classes = orbit_classes(ring)
    orbits, firsts = orbit_masks(ring, "left"), np.flatnonzero(classes == np.arange(n))
    laws = laws_hold(ring)
    ok = np.zeros(len(firsts), dtype=bool)
    if laws:
        gens = np.array(group_generators(ring.group), dtype=np.int64)
        gens_l = mul[gens[:, None], firsts]  # [s, i]: s*a for the i-th representative a
        conj = add[add[gens[:, None, None], gens_l], neg[gens][:, None, None]]  # x + s*a - x
        ok = orbits[firsts, conj].all(axis=(0, 1))
        left = _left_dist(add, mul)
        movers = gens[[left(gens[i:i + 1], gens).any() for i in range(len(gens))]]
        # One (l, r) pair of generators at a time, so temporaries stay R x n.
        for row in gens_l if len(movers) else ():
            shifted = add[row].astype(np.intp)                  # [i, m]: s*a + m
            for r in movers:
                rm = mul[r].astype(np.intp)
                diff = add[rm[shifted], neg[rm]]                # r(l+m) - rm
                ok &= orbits[firsts[:, None], diff].all(axis=1)
    for i in np.flatnonzero(~ok).tolist():
        first = int(firsts[i])
        ok[i] = _orbit_verdict(ring, first) is None
        if ok[i] and laws:
            raise InvariantError(f"batch N-ideal test disagrees at element {first}")
    return _seal(ok[np.searchsorted(firsts, classes)])


@memoized
def _orbit_verdict(ring: NearRing, a: int) -> Optional[IdealVerdict]:
    """The stage scans' verdict on Na, or None where Na is an N-ideal.  Its
    callers pass class representatives (``orbit_classes``): one scan per orbit."""
    return _stage_scans(regular_representation(ring), orbit_masks(ring, "left")[a])


def _subgroup_generators(add: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Greedy generating set of the subgroup ``members`` (ascending, 0 first)
    of a group with addition table ``add``, from its relabelled sub-table."""
    pos = np.zeros(len(add), dtype=np.int64)
    pos[members] = np.arange(len(members))
    return members[_generators(pos[add[members[:, None], members]])]


def is_N_ideal(module: NModule, subset) -> IdealVerdict:
    """Decide the three conditions in order: subgroup, normal, N-ideal, with
    the first witness of the first that fails (``_stage_scans``)."""
    verdict = _stage_scans(module, _index_mask(module.carrier.order, subset))
    return IdealVerdict("N_ideal") if verdict is None else verdict


def _stage_scans(module: NModule, in_l: np.ndarray) -> Optional[IdealVerdict]:
    """The scans of the bool mask ``in_l``, in order: 0 and L + L in L,
    x + l - x in L for every x, r(l+m) - rm in L for every r, the last two
    row by row over S_L (``core._first_witness``).  The first failing
    stage's first witness in ascending scan order, or None when L is an
    N-ideal."""
    if not in_l[0]:
        return IdealVerdict("not_subgroup", (0,))
    madd, mneg, mem = module.carrier.add, module.carrier.neg, np.flatnonzero(in_l)
    bad = _first_hit(~in_l[madd[mem[:, None], mem]])
    if bad:
        i, j = bad
        return IdealVerdict("not_subgroup", (int(mem[i]), int(mem[j])))
    gens_l = _subgroup_generators(madd, mem)
    w = _first_witness(lambda xs, ls: ~in_l[madd[madd[xs[:, None], ls], mneg[xs][:, None]]],
                       np.arange(len(madd)), gens_l, mem, 1)            # x + l - x
    if w:
        return IdealVerdict("not_normal", w)
    neg = mneg.astype(np.intp)

    def stage(rs, ls):  # r(l+m) - rm, the block of rows cast to intp once
        act = module.action[rs].astype(np.intp)
        return ~in_l[madd[act[:, madd[ls]], neg[act][:, None]]]

    w = _first_witness(stage, np.arange(module.ring.order), gens_l, mem, len(madd))
    return None if w is None else IdealVerdict("not_N_ideal", w)


def right_escape(ring: NearRing, subset) -> Optional[tuple[int, int]]:
    """The first (l, x), l in ``subset`` ascending, with l*x outside it."""
    in_l = _index_mask(ring.order, subset)
    members = np.flatnonzero(in_l)
    bad = _first_hit(~in_l[ring.mul[members]])
    return (int(members[bad[0]]), bad[1]) if bad else None


def is_ideal(ring: NearRing, subset) -> str:
    """'left_ideal' iff an N-ideal of the regular representation;
    'two_sided_ideal' additionally requires LN contained in L."""
    verdict = is_N_ideal(regular_representation(ring), subset)
    if not verdict:
        return "not_left_ideal"
    return "left_ideal" if right_escape(ring, subset) else "two_sided_ideal"


def _ideal_closure(ring: NearRing, seed: np.ndarray) -> np.ndarray:
    """Bool mask of the smallest N-ideal of the regular representation
    containing the bool mask ``seed``.

    The set is kept closed under + (``core._extend_closure``), so it is a
    subgroup, and only the elements added as its generators go through the
    conjugate and r(l+m) - rm rules: the reductions of ``is_N_ideal`` make
    that enough.  The loop indexes with the tables, so they are cast to
    intp once here rather than by numpy on every step.
    """
    add, neg, mul = (t.astype(np.intp) for t in (ring.add, ring.neg, ring.mul))
    minus_rm = neg[mul]
    reached = np.zeros(ring.order, dtype=bool)
    reached[0] = True
    wanted = seed | reached
    while not (wanted <= reached).all():
        g = int((wanted & ~reached).argmax())
        _extend_closure(add, reached, g)
        wanted[add[add[:, g], neg]] = True                  # x + g - x
        wanted[add[mul[:, add[g, :]], minus_rm]] = True     # r(g+m) - rm
    return reached


@memoized
def principal_ideals(ring: NearRing) -> np.ndarray:
    """Read-only n x n bool table whose row a is P(a), the smallest N-ideal
    of the regular representation containing a.

    Under the near-ring laws P(a) is decided from the set N0*a, N0 = {x :
    x*0 = 0} (module docstring): where a is in N0*a, P(a) is the smallest
    N-ideal containing N0*a, so one closure serves every element with the
    same set, and on a zero-symmetric ring it is Na itself wherever Na is
    an N-ideal.  Every other element, and every element of a table that
    breaks the laws, gets a closure of its own.
    """
    n, mul = ring.order, ring.mul
    idx = np.arange(n)
    table = np.zeros((n, n), dtype=bool)
    own = np.ones(n, dtype=bool)  # elements closed on their own
    if laws_hold(ring):
        seeds = np.zeros((n, n), dtype=bool)
        seeds[idx[None, :], mul[mul[:, 0] == 0]] = True     # row a: N0*a
        own = ~seeds[idx, idx]
        todo = ~own
        if not mul[:, 0].any():                             # N0 = N
            direct = todo & orbit_is_N_ideal(ring)
            table[direct] = seeds[direct]
            todo &= ~direct
        classes = _row_classes(np.packbits(seeds, axis=1))
        for first in sorted(set(classes[todo].tolist())):
            table[todo & (classes == first)] = _ideal_closure(ring, seeds[first])
    for a in np.flatnonzero(own).tolist():
        table[a] = _ideal_closure(ring, idx == a)
    return _seal(table)


def enumerate_left_ideals(ring: NearRing) -> list[frozenset[int]]:
    """All N-ideals of the regular representation; ascending by size then
    lexicographic.

    Every N-ideal is the sum of the principal ideals of its elements, and a
    sum of N-ideals is one (module docstring), so the ideals are the rows of
    ``principal_ideals`` closed under "+ principal ideal", saturated from a
    frontier.
    """
    if ring.order > IDEAL_ENUM_ORDER_CAP:
        raise CapExceeded(f"ideal enumeration limited to order {IDEAL_ENUM_ORDER_CAP}")
    add = ring.add.astype(np.intp)  # its sums index the masks below: cast once, not per step
    found: dict[bytes, np.ndarray] = {}

    def insert(mask: np.ndarray) -> bool:
        key = mask.tobytes()
        if key in found:
            return False
        found[key] = mask
        return True

    principal = []  # (a, members of the ideal a generates), one per distinct ideal
    for a, mask in enumerate(principal_ideals(ring)):
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
                mask[add[members[:, None], gen]] = True
                if insert(mask):
                    grown.append(mask)
        frontier = grown
    ideals = [frozenset(np.flatnonzero(mask).tolist()) for mask in found.values()]
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))


class Quotient(NamedTuple):
    """Factor module M/L with coset representatives = least member index."""

    module: NModule
    projection: tuple[int, ...]       # ambient index -> quotient index
    representatives: tuple[int, ...]  # quotient index -> ambient representative


def quotient_module(module: NModule, subset) -> Quotient:
    """N/L for an N-ideal L; raises ValueError, with the first witness, for
    a subset that ``is_N_ideal`` refuses."""
    verdict = is_N_ideal(module, subset)
    if not verdict:
        raise ValueError(f"subset is not an N-ideal: {verdict.kind} at {verdict.witness}")
    return _quotient(module, subset)


def _quotient(module: NModule, subset) -> Quotient:
    """N/L for a subset L that ``is_N_ideal`` has already accepted."""
    members = np.flatnonzero(_index_mask(module.carrier.order, subset))
    madd, act = module.carrier.add, module.action
    rep_of = madd[:, members].min(axis=1).astype(np.intp)  # least member of the coset x + L
    is_rep = rep_of == np.arange(len(madd))  # r is the least member of r + L
    reps = np.flatnonzero(is_rep)
    proj = (np.cumsum(is_rep) - 1).astype(madd.dtype)[rep_of]  # entries of the quotient tables
    qlabels = None
    if module.carrier.labels:
        qlabels = tuple(f"{module.carrier.label(r)}+L" for r in reps.tolist())
    carrier = validate_group(_seal(proj[madd[reps[:, None], reps]]), labels=qlabels)
    qact = _seal(proj[act[:, reps]])
    # Well-definedness: the action must not depend on the representative.
    bad = _first_hit(proj[act] != qact[:, proj])
    if bad:
        r, x = bad
        raise InvariantError("quotient action depends on coset representative "
                             f"at (r, m) = ({r}, {x})")
    return Quotient(
        module=NModule(ring=module.ring, carrier=carrier, action=qact),
        projection=tuple(proj.tolist()),
        representatives=tuple(reps.tolist()),
    )


# ---------------------------------------------------------------------------
# homomorphisms and isomorphisms
#
# A target can be a genuine NModule, or a subgroup of (N,+) viewed inside the
# regular representation (the shape of annihilator sets).  In the embedded
# case the action is the ambient multiplication, which may leave the subset;
# a hom must then map into the subset anyway, so such pairs simply fail.
# Either way a target is its addition table, its action table and the mask
# of its members, with 0 as its zero.


def _target(ring: NearRing, obj: Union[NModule, frozenset, set]):
    """(addition table, action table, member mask) of a hom target."""
    if isinstance(obj, NModule):
        return obj.carrier.add, obj.action, np.ones(obj.carrier.order, dtype=bool)
    members = _index_mask(ring.order, obj)
    if not members[0]:
        raise ValueError("embedded target must contain 0")
    return ring.add, ring.mul, members


class HomResult(NamedTuple):
    hom: Optional[tuple[int, ...]]  # M1 index -> target element, or None
    failure: Optional[str] = None
    failure_elements: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.hom is not None


def generated_submodule(module: NModule, g: int) -> frozenset[int]:
    """Closure of {0, g} under the action and +, hence a subgroup.  Each
    round takes the images of all members, 0 included: on an action that
    was not validated r*0 need not be 0."""
    madd, act = module.carrier.add, module.action
    wanted = _index_mask(module.carrier.order, (0, g))
    reached = np.zeros_like(wanted)
    while not (wanted <= reached).all():
        _extend_closure(madd, reached, int((wanted & ~reached).argmax()))
        wanted[act[:, reached]] = True
    return _members(reached)


def hom_from_cyclic_generator(module: NModule, g: int, target, b: int) -> HomResult:
    """The unique additive N-linear map sending g to b, if well defined.

    ``target`` is an NModule over the same ring or a frozenset embedded in
    the regular representation; ``b`` is an element index of the target's
    carrier (of N when embedded).  Failure names the violated relation.
    """
    if len(generated_submodule(module, g)) != module.carrier.order:
        raise ValueError(f"element {g} does not generate the module")
    target = _target(module.ring, target)
    return _extend_hom(_as_lists(module, target), g, _index(len(target[2]), b))


def _as_lists(module: NModule, target) -> tuple[list, ...]:
    """The module's action and addition and the target's tables as nested
    lists, which the closure below indexes entry by entry."""
    return (module.action.tolist(), module.carrier.add.tolist(),
            *(table.tolist() for table in target))


def _extend_hom(tables: tuple[list, ...], g: int, b: int) -> HomResult:
    """``hom_from_cyclic_generator`` for a generator g and a checked index b,
    on ``_as_lists`` tables."""
    act, madd, t_add, t_act, in_t = tables
    if not in_t[b]:
        return HomResult(None, "image_not_in_target", (b,))
    image: dict[int, int] = {0: 0, g: b}
    if image[0] != 0:
        return HomResult(None, "zero_relation", (0,))
    changed = True
    while changed:
        changed = False
        for x, y in sorted(image.items()):
            for r in range(len(act)):
                x2, y2 = act[r][x], t_act[r][y]
                if not in_t[y2]:
                    return HomResult(None, "action_escapes_target", (r, x))
                if x2 in image:
                    if image[x2] != y2:
                        return HomResult(None, "action_relation", (r, x, x2))
                else:
                    image[x2] = y2
                    changed = True
            for x2, y2 in sorted(image.items()):
                x3, y3 = madd[x][x2], t_add[y][y2]
                if not in_t[y3]:
                    return HomResult(None, "sum_escapes_target", (x, x2))
                if x3 in image:
                    if image[x3] != y3:
                        return HomResult(None, "sum_relation", (x, x2, x3))
                else:
                    image[x3] = y3
                    changed = True
    if len(image) != len(madd):
        raise InvariantError(f"closure from generator {g} reached {len(image)} "
                             f"of {len(madd)} elements")
    return HomResult(hom=tuple(image[x] for x in range(len(madd))))


class IsoResult(NamedTuple):
    isomorphic: bool
    witness: Optional[tuple[int, ...]] = None  # M1 index -> target element

    def __bool__(self) -> bool:
        return self.isomorphic


def _cyclic_generator(module: NModule) -> Optional[int]:
    """The least element that generates the module, or None if it is not cyclic."""
    m_n = module.carrier.order
    return next((g for g in range(m_n) if len(generated_submodule(module, g)) == m_n), None)


def _iso_generator(module: NModule, target, gen: int) -> IsoResult:
    tables = _as_lists(module, target)
    members = np.flatnonzero(target[2]).tolist()
    for b in members:
        res = _extend_hom(tables, gen, b)
        if res and len(set(res.hom)) == len(res.hom) == len(members):
            return IsoResult(True, res.hom)
    return IsoResult(False)


def _iso_bruteforce(module: NModule, target) -> IsoResult:
    """The first bijection fixing 0, in ``itertools.permutations`` order, that
    is additive and N-linear.  Both laws compare against ``hom`` of an
    element, which lies in the target, so they also keep the image there."""
    t_add, t_act, members = target
    m_n = module.carrier.order
    if m_n != members.sum():
        return IsoResult(False)
    if m_n > BRUTEFORCE_ISO_CAP:
        raise CapExceeded(f"bruteforce isomorphism limited to |M| <= {BRUTEFORCE_ISO_CAP}")
    m_add, m_act = (t.astype(np.intp) for t in (module.carrier.add, module.action))  # indices
    perms = itertools.permutations(np.flatnonzero(members)[1:].tolist())
    while block := list(itertools.islice(perms, 120)):
        homs = np.array([(0,) + perm for perm in block], dtype=np.intp).reshape(-1, m_n)
        # [p, x, y]: hom(x) + hom(y) == hom(x + y) under permutation p
        additive = (t_add[homs[:, :, None], homs[:, None, :]] == homs[:, m_add]).all(axis=(1, 2))
        for hom in homs[additive]:
            if (t_act[:, hom] == hom[m_act]).all():
                return IsoResult(True, tuple(hom.tolist()))
    return IsoResult(False)


def modules_isomorphic(module: NModule, target, mode: str = "auto") -> IsoResult:
    """Does an additive N-linear bijection exist from ``module`` onto ``target``?

    generator: image of a cyclic generator determines the map (any order).
    bruteforce: scan all bijections fixing 0 (|M| <= 8).
    auto: generator when the module is cyclic, else bruteforce.
    """
    target = _target(module.ring, target)
    if mode == "bruteforce":
        return _iso_bruteforce(module, target)
    if mode not in ("generator", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    gen = _cyclic_generator(module)
    if gen is not None:
        return _iso_generator(module, target, gen)
    if mode == "generator":
        raise ValueError("module is not cyclic; generator mode does not apply")
    if module.carrier.order <= BRUTEFORCE_ISO_CAP:
        return _iso_bruteforce(module, target)
    raise CapExceeded("module is not cyclic and exceeds the bruteforce cap")
