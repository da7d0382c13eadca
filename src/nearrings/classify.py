"""Element and structure classification with explicit witnesses.

Witness tie-breaking is always the least element index, so every report is
reproducible.  Left morphic is decided by the witness scan (b with Na = (0:b)
and Nb = (0:a)); the brute-force isomorphism search between N/Na and (0:a),
``_algorithm_I``, runs only in the ``lemma1_equiv`` cell, which compares them.

The scans run over whole-ring n x n bool tables from ``nmodules``: rows of
Na, aN, (0:a) and {x : ax = 0}, plus "Na is an N-ideal" for every a
(``orbit_is_N_ideal``, one pass over the distinct orbits, with the
memoised stage scans' first witness of each orbit it rejects).  The
morphic witness scan, subcommutativity (Na = aN), weak divisibility (b in
Na or a in Nb) and IFP (ab = 0 implies aN in (0:b), once per distinct
(aN, {x : ax = 0})) read rows of these tables; each still reports the
first witness in ascending scan order.
Left duo is decided by ``right_escape`` on the distinct principal ideals
(``nmodules.principal_ideals``, one closure per distinct seed set, none
where P(a) = Na); the comment in ``structure_profile`` shows why the first
ideal that is not two-sided is a principal one.

Each per-element fact is one read-only vector over the whole ring,
``element_column(ring, name)``, computed on first read, kept in the ring's
``derived`` cache; no column or profile is capped by order.  A witness
vector holds the least witness, or -1 where there is none.  The profiles and
the theorem cells read these vectors: ``all_element_profiles`` builds each
profile field from one ``.tolist()`` of a column, and takes the morphic
verdicts from ``_morphic_verdicts``, as ``is_left_morphic`` does.

The verdict, the ring's place in the paper's chain (left strongly regular
within left morphic regular within unit regular), is a function of four
whole-ring facts alone (``_chain_verdict``).  ``class_verdict`` reads them
from the "lsr", "regular", "unit_regular" and "morphic" columns, so
``corpus`` and text ``classify`` build no ``StructureProfile``; only
``classify --format json`` and the theorem cells (``verify``) build one,
and its ``verdict()`` is the same mapping.

``MorphicVerdict``, ``ElementProfile`` and ``StructureProfile`` are
``typing.NamedTuple``s: equality is tuple equality over every field,
``StructureProfile.witnesses`` included; ``_fields`` gives the field order
(the JSON "structure" keys) and ``_replace`` a changed copy.  A verdict's
truth value is its verdict, not the tuple's: ``bool(MorphicVerdict(
"no_witness"))`` is False.
"""
from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (NearRing, _first_hit, _first_hit_in_blocks, _first_rows, _row_classes,
                   _seal, memoized)
from .nmodules import (
    IDEAL_ENUM_ORDER_CAP,
    IdealVerdict,
    annihilator,
    annihilator_masks,
    is_N_ideal,
    modules_isomorphic,
    orbit,
    orbit_classes,
    orbit_is_N_ideal,
    orbit_masks,
    principal_ideals,
    regular_representation,
    right_escape,
    _index,
    _orbit_verdict,
    _quotient,
)

class NonUnitalError(ValueError):
    """Operation needs a unity and the near-ring has none."""


def first_true(hits: np.ndarray) -> np.ndarray:
    """Per row of a 2-d bool array, the least column that is True, or -1."""
    return np.where(hits.any(axis=1), hits.argmax(axis=1), -1)


def _least_solution(table: np.ndarray) -> np.ndarray:
    """Per row a of a square table, the least x with table[a, x] == a, or -1."""
    return first_true(table == np.arange(len(table), dtype=table.dtype)[:, None])


def _or_none(column: np.ndarray) -> list[Optional[int]]:
    """A witness column as Python ints, with None for -1."""
    return [None if v < 0 else v for v in column.tolist()]


def inner_products(ring: NearRing) -> np.ndarray:
    """n x n table whose entry [a, x] is (a*x)*a."""
    return ring.mul[ring.mul, np.arange(ring.order)[:, None]]


@memoized
def units(ring: NearRing) -> tuple[frozenset[int], tuple[Optional[int], ...]]:
    """All two-sided invertible elements, plus the inverse table."""
    inv = tuple(_or_none(element_column(ring, "inverse")))
    return frozenset(a for a, v in enumerate(inv) if v is not None), inv


class MorphicVerdict(NamedTuple):
    status: str  # morphic | na_not_ideal | no_witness
    witness: Optional[int] = None
    ideal_verdict: Optional[IdealVerdict] = None

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
    quot = _quotient(regular_representation(ring), na)  # Na passed is_N_ideal above
    return bool(modules_isomorphic(quot.module, ann, mode="bruteforce"))


def is_left_morphic(ring: NearRing, a: int) -> MorphicVerdict:
    """Witness scan: Na must be an N-ideal and some b must satisfy
    Na = (0:b) and Nb = (0:a); first such b wins.

    The verdict is a's entry of ``_morphic_verdicts``."""
    a = _index(ring.order, a)
    if ring.one is None:
        raise NonUnitalError("left morphic is defined only for unital near-rings")
    return _morphic_verdicts(ring)[a]


def _inverses(ring: NearRing) -> np.ndarray:
    if ring.one is None:
        raise NonUnitalError("units are defined only for unital near-rings")
    is_one = ring.mul == ring.one
    return first_true(is_one & is_one.T)  # [a, v]: a*v = v*a = 1


def _nilpotency(ring: NearRing) -> np.ndarray:
    """Per a, the least k <= n with a^k = 0, else 0.

    Step k holds the vector v_k = (a^k) over all a, and v_{k+1} = F(v_k) with
    F(v)[a] = v[a]*a: a function of v_k alone.  So once v_j = v_i for some
    i < j, the vectors from step i on repeat with period j - i, and every
    value an entry takes at a step >= j it already took at a step in [i, j):
    no entry reaches 0 for the first time after step j, and the loop stops
    there, after recording step j's zeros.  The argument uses no near-ring
    law (0*a = 0 need not hold), so it is exact on any table.  A repeat is
    found by Brent's method: v_k is kept at k = 1, 2, 4, 8, ... and each
    step's vector is compared with the kept one.  If the vectors repeat with
    period L from step m on, the first kept step p >= max(m, L) is below
    2 max(m, L), and v_{p+L} = v_p stops the loop there.  n stays the cap.
    """
    n = ring.order
    by_column = ring.mul.T.ravel()  # entry a*n + x is x*a
    column = np.arange(n) * n       # an intp offset, so each step is a plain 1-d gather
    nilpotency = np.zeros(n, dtype=np.int64)
    power = np.arange(n, dtype=by_column.dtype)
    kept, keep_at = None, 1
    for k in range(1, n + 1):
        nilpotency[(power == 0) & (nilpotency == 0)] = k
        seen = power.tobytes()
        if seen == kept:
            break
        if k == keep_at:
            kept, keep_at = seen, 2 * k
        power = by_column[column + power]  # a^k * a
    return nilpotency


def _ifp_witness(ring: NearRing) -> Optional[tuple[int, int, int]]:
    """The first IFP witness (a, x, b): ab = 0 but (ax)b != 0, or None.

    With r(a) = {b : ab = 0}, row a of ``annihilator_masks(ring, "right")``,
    a fails iff mul[aN, r(a)] has a non-zero entry: a fact of the pair
    (aN, r(a)) alone.  So each distinct pair is tested once on its least
    element, in ascending order (``_first_rows`` over both packed rows), in
    blocks over b.  A class fails as a whole, so the first failing class
    starts with the least failing a; the blocks give its least b, and x is
    read from that b: the row-major first witness.  A pair gathers
    |aN| * |r(a)| entries.  On a ring x -> ax is an endomorphism of (N,+)
    with image aN and kernel r(a), so that is n (first isomorphism theorem)
    and O(n^2) in all; on other tables it is at most n^2, O(n^3) in all.
    """
    mul = ring.mul
    right, kernel = orbit_masks(ring, "right"), annihilator_masks(ring, "right")
    pairs = np.concatenate([np.packbits(right, axis=1), np.packbits(kernel, axis=1)], axis=1)
    for a in _first_rows(pairs):
        ys, bs = np.flatnonzero(right[a]), np.flatnonzero(kernel[a])
        hit = _first_hit_in_blocks(lambda i: mul[ys, bs[i, None]] != 0, len(bs), 8 * len(ys))
        if hit is not None:
            b = int(bs[hit[0]])
            x, = _first_hit(mul[mul[a], b] != 0)
            return a, x, b
    return None


def _morphic_witnesses(ring: NearRing) -> np.ndarray:
    """Per a, the least b with Na = (0:b) and Nb = (0:a), or -1.

    Equal rows of the orbit and annihilator tables get equal labels
    (``_row_classes``, on the rows packed to bits), so b is the first
    element whose label pair (Nb, (0:b)) is a's pair ((0:a), Na)."""
    n = ring.order
    labels = _row_classes(np.concatenate([np.packbits(orbit_masks(ring, "left"), axis=1),
                                          np.packbits(annihilator_masks(ring, "left"), axis=1)]))
    na, ann = labels[:n], labels[n:]
    pairs, first = np.unique(na * 2 * n + ann, return_index=True)
    wanted = ann * 2 * n + na
    at = np.searchsorted(pairs, wanted).clip(max=len(pairs) - 1)
    return np.where(pairs[at] == wanted, first[at], -1)


def _left_morphic(ring: NearRing) -> np.ndarray:
    """Per a: Na is an N-ideal and a has a morphic witness."""
    if ring.one is None:
        raise NonUnitalError("left morphic is defined only for unital near-rings")
    return orbit_is_N_ideal(ring) & (element_column(ring, "morphic_witness") >= 0)


@memoized
def _regular_witnesses(ring: NearRing) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Per a, the least x with (a*x)*a == a, and on a unital ring the least
    unit x with it (None without unity): both from one n x n table
    (a*x)*a, which is not kept."""
    products = inner_products(ring)
    units = None
    if ring.one is not None:
        units = _least_solution(np.where(element_column(ring, "inverse") >= 0, products, -1))
    return _least_solution(products), units


def _unit_regular(ring: NearRing) -> np.ndarray:
    if ring.one is None:
        raise NonUnitalError("units are defined only for unital near-rings")
    return _regular_witnesses(ring)[1]


_COLUMNS: dict[str, Callable[[NearRing], np.ndarray]] = {
    "inverse": _inverses,
    "idempotent": lambda ring: ring.mul.diagonal() == np.arange(ring.order, dtype=ring.mul.dtype),
    "central": lambda ring: (ring.mul == ring.mul.T).all(axis=1),
    "nilpotency": _nilpotency,
    "regular": lambda ring: _regular_witnesses(ring)[0],
    "unit_regular": _unit_regular,
    "lsr": lambda ring: _least_solution(ring.mul[:, ring.mul.diagonal()].T),  # x*(a*a) == a
    "rsr": lambda ring: _least_solution(ring.mul[ring.mul.diagonal()]),       # (a*a)*x == a
    "morphic_witness": _morphic_witnesses,
    "morphic": _left_morphic,
}


@memoized
def element_column(ring: NearRing, name: str) -> np.ndarray:
    """The fact ``name`` of ``_COLUMNS`` at every element, as a read-only
    vector.  "inverse", "unit_regular" and "morphic" raise
    ``NonUnitalError`` on a ring without unity."""
    return _seal(_COLUMNS[name](ring))


class ElementProfile(NamedTuple):
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
    return all_element_profiles(ring)[_index(ring.order, a)]


@memoized
def all_element_profiles(ring: NearRing) -> tuple[ElementProfile, ...]:
    """Every element's profile, built from the columns' values and
    ``_morphic_verdicts``."""
    n, unital = ring.order, ring.one is not None
    col = functools.partial(element_column, ring)
    none = [None] * n

    def witnessed(name: str) -> tuple[list, list]:
        """Per element: whether column ``name`` has a witness, and the witness or None."""
        return (col(name) >= 0).tolist(), _or_none(col(name))

    is_unit, inverse = witnessed("inverse") if unital else (none, none)
    is_ureg, unit_witness = witnessed("unit_regular") if unital else (none, none)
    (is_reg, reg), (is_lsr, lsr), (is_rsr, rsr) = map(witnessed, ("regular", "lsr", "rsr"))
    sizes = (table.sum(axis=1).tolist()
             for table in (orbit_masks(ring, "left"), orbit_masks(ring, "right"),
                           annihilator_masks(ring, "left"), annihilator_masks(ring, "right")))
    # One list per field, in the field order of ``ElementProfile``.
    return tuple(map(ElementProfile, range(n), ring.group.labels or map(str, range(n)),
                     is_unit, inverse, col("idempotent").tolist(), col("central").tolist(),
                     col("nilpotency").tolist(), is_reg, reg, is_ureg, unit_witness,
                     is_lsr, lsr, is_rsr, rsr,
                     _morphic_verdicts(ring) if unital else none, *sizes))


@memoized
def _morphic_verdicts(ring: NearRing) -> tuple[MorphicVerdict, ...]:
    """The verdict of every a: the stage scans' verdict on a's orbit class
    where Na is not an N-ideal, else a's entry of the "morphic_witness"
    column."""
    no_witness = MorphicVerdict("no_witness")
    return tuple(MorphicVerdict("na_not_ideal", ideal_verdict=_orbit_verdict(ring, c))
                 if not ideal else MorphicVerdict("morphic", b) if b >= 0 else no_witness
                 for ideal, c, b in zip(orbit_is_N_ideal(ring).tolist(),
                                        orbit_classes(ring).tolist(),
                                        element_column(ring, "morphic_witness").tolist()))


class StructureProfile(NamedTuple):
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
    witnesses: dict = MappingProxyType({})  # a shared default, so read-only

    def verdict(self) -> str:
        """One-line class membership summary (``_chain_verdict``)."""
        return _chain_verdict(self.left_strongly_regular, self.regular, self.unit_regular,
                              self.left_morphic)


def _chain_verdict(left_strongly_regular: bool, regular: bool, unit_regular: Optional[bool],
                   left_morphic: Optional[bool]) -> str:
    """The place of a near-ring in the paper's chain, left strongly regular
    within left morphic regular within unit regular, from the four whole-ring
    facts (the last two None without unity)."""
    if left_strongly_regular:
        return "left strongly regular"
    if left_morphic and regular:
        return "left morphic regular"
    if unit_regular:
        return "unit-regular but not left morphic"
    if regular:
        return "regular"
    return "not regular"


def class_verdict(ring: NearRing) -> str:
    """``structure_profile(ring).verdict()``, read from the "lsr", "regular",
    "unit_regular" and "morphic" columns alone: no other structure fact is
    computed."""
    col, unital = functools.partial(element_column, ring), ring.one is not None
    return _chain_verdict(bool((col("lsr") >= 0).all()), bool((col("regular") >= 0).all()),
                          bool((col("unit_regular") >= 0).all()) if unital else None,
                          bool(col("morphic").all()) if unital else None)


@memoized
def structure_profile(ring: NearRing) -> StructureProfile:
    n, mul = ring.order, ring.mul
    unital = ring.one is not None
    col = functools.partial(element_column, ring)
    nonzero = np.arange(n) > 0
    flag_witnesses = dict(ring.flag_witnesses)
    witnesses: dict = {flag: flag_witnesses[flag] for flag in ("zero_symmetric", "abelian_add")
                       if flag in flag_witnesses}
    if not ring.is_ring():
        witnesses["is_ring"] = (flag_witnesses.get("abelian_add")
                                or flag_witnesses.get("left_distributive"))

    def holds(prop: str, bad: Optional[tuple[int, ...]]) -> bool:
        if bad is not None:
            witnesses[prop] = bad
        return bad is None

    near_field = (unital and holds("is_near_field", _first_hit((col("inverse") < 0) & nonzero))
                  and n > 1)
    reduced = holds("reduced", _first_hit((col("nilpotency") > 0) & nonzero))

    left, right = orbit_masks(ring, "left"), orbit_masks(ring, "right")
    ifp = holds("has_ifp", _ifp_witness(ring))  # ab = 0 implies aNb = 0
    subcommutative = holds("subcommutative", _first_hit((left != right).any(axis=1)))
    boolean = holds("boolean", _first_hit(~col("idempotent")))
    # Weakly divisible: b in Na or a in Nb for every pair (a, b).
    weakly_divisible = holds("weakly_divisible", _first_hit(~(left | left.T)))

    # Left duo: every N-ideal L of the regular representation has LN in L.
    # If l*x escapes L for some l in L, it escapes the principal ideal
    # P(l), which lies in L; so a smallest failing L contains a failing
    # P(l), and |P(l)| <= |L| forces P(l) = L.  The first failing ideal in
    # (size, members) order is therefore the first failing principal one,
    # found by ``right_escape`` on the distinct rows of ``principal_ideals``.
    # The order gate stays: perfbench/oracle.py and the recorded seed-1
    # digests expect left_duo to be null above it, so lifting it is an
    # output change of its own.
    left_duo: Optional[bool] = None
    if n <= IDEAL_ENUM_ORDER_CAP:
        principal = principal_ideals(ring)
        ideals = sorted((tuple(np.flatnonzero(principal[a]).tolist())
                         for a in _first_rows(np.packbits(principal, axis=1))),
                        key=lambda p: (len(p), p))
        escape = next(((w, p) for p in ideals if (w := right_escape(ring, p))), None)
        left_duo = escape is None
        if escape:
            witnesses["left_duo"], witnesses["left_duo_ideal"] = escape

    bad = _first_hit(col("idempotent") & ~col("central"))
    if bad is not None:
        x, = _first_hit(mul[bad[0]] != mul[:, bad[0]])
        bad = (*bad, x)
    idem_central = holds("idempotents_central", bad)

    regular = holds("regular", _first_hit(col("regular") < 0))
    lsr = holds("left_strongly_regular", _first_hit(col("lsr") < 0))
    rsr = holds("right_strongly_regular", _first_hit(col("rsr") < 0))
    unit_regular: Optional[bool] = None
    left_morphic: Optional[bool] = None
    if unital:
        unit_regular = holds("unit_regular", _first_hit(col("unit_regular") < 0))
        left_morphic = holds("left_morphic", _first_hit(~col("morphic")))

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
