"""Table-based finite right near-rings: validation, construction, serialization.

Everything is an index table: a group of order n is an n-by-n addition table
over element indices 0..n-1, and a near-ring adds an n-by-n multiplication
table on top.

Each table law is written once, as a row function: given a row r it returns
the bool table over (s, m) that is True where the law fails.  ``_assoc`` is
(r.s).m = r.(s.m) and ``_additive`` is (r+s).m = r.m + s.m, for an action of
a near-ring on a group; a near-ring's laws are ``_assoc(add, add)``,
``_assoc(mul, mul)`` and ``_additive(add, mul, add)``, the two module laws
of its regular representation plus associativity of +.  The same row
functions serve ``nmodules.validate_module`` and ``is_N_ideal``.

Every verdict is exact, but the O(n^3) laws are decided in O(n^2 |S|) by
``_holds`` over the rows r in a generating set S of (N,+).  The rows where
a law holds are closed under +, and contain 0 once they contain S (for
associativity of +, 0 is an identity; for the others (N,+) is a finite
group, where 0 is a multiple of any s), so they are all of N as soon as
they contain S.  The closure, for r1, r2 in that set:

- associativity of +, with nothing else:
  ((r1+r2)+s)+m = (r1+(r2+s))+m = r1+((r2+s)+m) = r1+(r2+(s+m)) = (r1+r2)+(s+m);
- right distributivity, given associative +:
  ((r1+r2)+s)*m = r1*m + (r2+s)*m = r1*m + r2*m + s*m = (r1+r2)*m + s*m;
- associativity of *, given right distributivity:
  ((r1+r2)*s)*m = (r1*s)*m + (r2*s)*m = r1*(s*m) + r2*(s*m) = (r1+r2)*(s*m).

``_laws_hold`` checks right distributivity, then associativity, over S: the
one law predicate, exact for any table over a group.  ``validate_nearring``
calls it on the raw tables; every other caller reads ``laws_hold(ring)``,
its verdict on a ring's own tables, memoised in the ring's ``derived``
cache like ``endomorphism_rows(ring)``, the vector of rows x for which
y -> x*y is an endomorphism of (N,+), tested for all rows at once over S.
Validation stores both (``True`` and the vector); the flags and their
witnesses (``flag_scan``, read through ``ring.flags`` and
``ring.flag_witnesses``) are computed from the ring's own tables on first
read.  A ``dataclasses.replace`` copy starts with an empty cache and
computes all of them from its own tables, so no caller needs to know how a
ring was made.

Validation keeps S as the group's ``group_generators``, which the N-ideal
test reuses.  Every first witness is the first True entry of a bool table
in row-major order, as a tuple of Python ints (``_first_hit``); when a
reduced check fails, ``_first_violation`` scans the same row function over
all rows for the first witness in ascending scan order, and every reported
failure carries a witness tuple that re-evaluates to a violation on the
raw tables.  The associativity scans read only the first of each set of
equal rows (``_first_rows``), since equal rows have the same check; with k
distinct rows a scan costs O(k n^2 + n^2), and O(n^3) when all rows differ.

Every table (``FiniteGroup.add``/``neg``, ``NearRing.mul``, ``NModule.action``)
is stored once, as a read-only int64 array, converted on construction (also
by ``dataclasses.replace``); ``.tolist()`` gives nested lists.  Equality of
these dataclasses is identity; compare tables with ``np.array_equal``.

``parse_table`` reads a table document in one of two ways, with the same
field checks after either.  ``_read_document`` walks the top-level object
with the ``json`` scanner and decodes ``add`` and ``mul`` from their
characters in numpy, when they follow a valid ``order`` and hold n rows of
n unsigned integers without leading zeros.  Any other document, and every
malformed one, goes through ``json.loads``, which alone words the errors.
"""
from __future__ import annotations

import functools
import itertools
import json
import json.decoder
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Construction refuses anything larger than this.
DEFAULT_ORDER_CAP = 4096

TABLE_FORMAT = "nearring-table/1"


class TableFormatError(ValueError):
    """Malformed table document: bad shape, out-of-range index, missing field."""


class CapExceeded(ValueError):
    """Requested construction or scan exceeds the configured order cap."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a defect in this package, not in
    the input.  Raised explicitly so the check survives ``python -O``."""


class AxiomViolation(Exception):
    """A named law fails on the tables.

    ``law`` is one of add_assoc, add_identity, add_inverse, mul_assoc,
    right_dist, unity; ``witness`` re-evaluates to a violation.
    """

    def __init__(self, law: str, witness, message: str | None = None):
        self.law = law
        self.witness = tuple(int(w) for w in witness)
        super().__init__(message or f"{law} fails at witness {self.witness}")


def _seal(arr: np.ndarray) -> np.ndarray:
    """Make an array that this package has just built read-only, in place."""
    arr.setflags(write=False)
    return arr


def _as_table(table) -> np.ndarray:
    """``table`` as a read-only int64 array.  One that already is that is
    kept; anything else, a caller's writable array included, is copied."""
    if isinstance(table, np.ndarray) and table.dtype == np.int64 and not table.flags.writeable:
        return table
    return _seal(np.array(table, dtype=np.int64))


class _Tables:
    """Base of the dataclasses that hold tables: on construction, including
    ``dataclasses.replace``, each field named in ``_TABLES`` becomes a
    read-only int64 array."""

    _TABLES: tuple[str, ...] = ()

    def __post_init__(self):
        for name in self._TABLES:
            object.__setattr__(self, name, _as_table(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class FiniteGroup(_Tables):
    """Additive group as a Cayley table; index 0 is the identity."""

    _TABLES = ("add", "neg")

    order: int
    add: np.ndarray
    neg: np.ndarray
    labels: Optional[tuple[str, ...]] = None
    derived: dict = field(default_factory=dict, init=False, repr=False)

    def sub(self, i: int, j: int) -> int:
        return int(self.add[i, self.neg[j]])

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)


@dataclass(frozen=True)
class NearRingFlags:
    left_distributive: bool
    abelian_add: bool
    zero_symmetric: bool
    unital: bool
    commutative_mul: bool


@dataclass(frozen=True, eq=False)
class NearRing(_Tables):
    """Finite right near-ring: additive group plus multiplication table.

    ``factors`` / ``extension`` record construction provenance (direct
    products and the R x M extension) so structure-specific checks can
    recognise how an instance was built.

    A ``dataclasses.replace`` copy keeps ``one`` as given, unchecked
    against its tables.  Its ``derived`` cache starts empty, so what is
    memoised there (``laws_hold``, ``endomorphism_rows`` and the ``flags``
    with their ``flag_witnesses`` included) is computed from its own tables.
    """

    _TABLES = ("mul",)

    group: FiniteGroup
    mul: np.ndarray
    one: Optional[int]
    name: Optional[str] = None
    factors: Optional[tuple["NearRing", ...]] = None
    extension: Optional[tuple] = None
    derived: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def add(self) -> np.ndarray:
        return self.group.add

    @property
    def neg(self) -> np.ndarray:
        return self.group.neg

    def label(self, i: int) -> str:
        return self.group.label(i)

    def sub(self, i: int, j: int) -> int:
        return self.group.sub(i, j)

    @property
    def flags(self) -> NearRingFlags:
        return flag_scan(self)[0]

    @property
    def flag_witnesses(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """The first witness of each flag that fails, in the order of the
        ``NearRingFlags`` fields (``unital`` has none)."""
        return flag_scan(self)[1]

    def is_ring(self) -> bool:
        return self.flags.abelian_add and self.flags.left_distributive


def same_tables(ring: NearRing, other: NearRing) -> bool:
    """Equal addition and multiplication tables, whatever the names."""
    return np.array_equal(ring.add, other.add) and np.array_equal(ring.mul, other.mul)


def memoized(fn):
    """Cache ``fn(obj, *args, **kwargs)`` in ``obj.derived``, keyed by the
    function name and the arguments.  ``derived`` is per instance and never
    copied, so a lookup hashes no table and the entries die with the
    instance."""
    @functools.wraps(fn)
    def cached(obj, *args, **kwargs):
        key = (fn.__name__, *args, *sorted(kwargs.items()))
        if key not in obj.derived:
            obj.derived[key] = fn(obj, *args, **kwargs)
        return obj.derived[key]

    def keep(obj, value, *args):
        """Store a value already computed elsewhere as ``fn(obj, *args)``."""
        obj.derived[(fn.__name__, *args)] = value

    cached.keep = keep
    return cached


def _check_table(table, rows: int, cols: int, field: str) -> np.ndarray:
    """``table`` as a read-only int64 ``rows`` x ``cols`` array of indices
    in [0, cols).  Fast path: an integer array, or nested lists of exactly
    ``int`` (not ``bool``), of the right shape, is range-checked as an
    array, which names the first out-of-range entry in row-major order.
    Anything else takes the loop below, which names the first offending row
    or entry; a table or row that is not a list (a number, null, a JSON
    object) is refused as such."""
    arr = None
    if isinstance(table, np.ndarray):
        if np.issubdtype(table.dtype, np.integer) and table.shape == (rows, cols):
            arr = table
    elif (isinstance(table, (list, tuple)) and len(table) == rows
          and all(isinstance(row, (list, tuple)) and len(row) == cols for row in table)
          and set(map(type, itertools.chain.from_iterable(table))) <= {int}):
        try:
            arr = _seal(np.array(table, dtype=np.int64))
        except OverflowError:  # an entry beyond int64; the loop reports it
            pass
    if arr is not None:
        if arr.min() >= 0 and arr.max() < cols:
            return _as_table(arr)
        i, j = _first_hit((arr < 0) | (arr >= cols))
        raise TableFormatError(
            f"{field}: entry {int(arr[i, j])!r} in row {i} out of range [0,{cols})")
    if isinstance(table, np.ndarray):
        table = table.tolist()
    if not isinstance(table, (list, tuple)):
        raise TableFormatError(f"{field}: not a list of rows")
    if len(table) != rows:
        raise TableFormatError(f"{field}: expected {rows} rows, got {len(table)}")
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise TableFormatError(f"{field}: row {i} is not a list")
        if len(row) != cols:
            raise TableFormatError(f"{field}: row {i} has {len(row)} entries, expected {cols}")
        for v in row:
            if (not isinstance(v, (int, np.integer)) or isinstance(v, bool)
                    or not 0 <= v < cols):
                raise TableFormatError(f"{field}: entry {v!r} in row {i} out of range [0,{cols})")
    return _as_table(table)


def _identities(t: np.ndarray) -> np.ndarray:
    """Bool vector: entry e says whether e is a two-sided identity of ``t``."""
    idx = np.arange(len(t))
    return (t == idx).all(axis=1) & (t == idx[:, None]).all(axis=0)


def _first_hit(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """The index of the first True entry of ``mask`` in row-major order, as
    a tuple of Python ints, or None when there is none."""
    if mask.size:
        i = int(mask.argmax())
        if mask.flat[i]:
            return tuple(int(k) for k in np.unravel_index(i, mask.shape))
    return None


def _first_non_identity(t: np.ndarray, e: int) -> Optional[tuple[int]]:
    """(x,) for the least x with t[e][x] != x or t[x][e] != x, or None."""
    idx = np.arange(len(t))
    return _first_hit((t[e] != idx) | (t[:, e] != idx))


def _extend_closure(add: np.ndarray, reached: np.ndarray, s: int) -> None:
    """Add ``s`` to the +-closed bool mask ``reached`` and close it again,
    in place.  Semi-naive: only sums with a newly reached element can be new.
    """
    reached[s] = True
    frontier = np.array([s])
    while len(frontier):
        members = np.flatnonzero(reached)
        new = np.zeros(len(add), dtype=bool)
        new[add[frontier[:, None], members].ravel()] = True
        new[add[members[:, None], frontier].ravel()] = True
        new &= ~reached
        reached |= new
        frontier = np.flatnonzero(new)


def _generators(add: np.ndarray) -> list[int]:
    """Greedy generating set of the magma (N,+), ascending.

    Repeatedly takes the least index not yet reached and extends the
    closure.  The closure is seeded with 0, which callers have checked to be
    a two-sided identity.
    """
    reached = np.zeros(len(add), dtype=bool)
    reached[0] = True
    gens = []
    while not reached.all():
        s = int(reached.argmin())
        gens.append(s)
        _extend_closure(add, reached, s)
    return gens


@memoized
def group_generators(group: FiniteGroup) -> list[int]:
    """Greedy generating set of the group (see ``_generators``)."""
    return _generators(group.add)


def _assoc(rmul: np.ndarray, act: np.ndarray):
    """Row function of (r.s).m = r.(s.m): row r gives the bool table over
    (s, m) that is True where the law fails."""
    return lambda r: act[rmul[r]] != act[r][act]


def _additive(radd: np.ndarray, act: np.ndarray, madd: np.ndarray):
    """Row function of (r+s).m = r.m + s.m: row r gives the bool table over
    (s, m) that is True where the law fails."""
    return lambda r: act[radd[r]] != madd[act[r], act]


def _holds(bad, rows) -> bool:
    """No row in ``rows`` has a failure of the row function ``bad``."""
    return not any(bad(r).any() for r in rows)


def _laws_hold(add: np.ndarray, mul: np.ndarray, gens) -> bool:
    """Right distributivity and associativity of ``mul``, over generators."""
    return _holds(_additive(add, mul, add), gens) and _holds(_assoc(mul, mul), gens)


def _first_violation(bad, rows) -> Optional[tuple[int, ...]]:
    """The first (i, *rest) with ``bad(i)[rest]`` True, i ascending over
    ``rows`` and rest in row-major order, or None."""
    return next(((int(i), *hit) for i in rows if (hit := _first_hit(bad(i)))), None)


def _left_dist_bad_rows(add: np.ndarray, mul: np.ndarray, gens) -> np.ndarray:
    """Rows x where y -> x*y is not an endomorphism of the group (N,+):
    x*(y+s) != x*y + x*s for some y and generator s."""
    bad = np.zeros(len(add), dtype=bool)
    for s in gens:
        bad |= (mul[:, add[:, s]] != add[mul, mul[:, s][:, None]]).any(axis=1)
    return bad


@memoized
def laws_hold(ring: NearRing) -> bool:
    """``_laws_hold`` on the ring's own tables, over ``group_generators``."""
    return _laws_hold(ring.add, ring.mul, group_generators(ring.group))


@memoized
def endomorphism_rows(ring: NearRing) -> np.ndarray:
    """Read-only bool vector: entry x says whether y -> x*y is an
    endomorphism of (N,+)."""
    return _seal(~_left_dist_bad_rows(ring.add, ring.mul, group_generators(ring.group)))


@memoized
def flag_scan(ring: NearRing) -> tuple[NearRingFlags, tuple[tuple[str, tuple[int, ...]], ...]]:
    """Exact flag scans on the ring's own tables: the flags, and the first
    witness of each flag that fails (``NearRing.flag_witnesses``)."""
    add, mul = ring.add, ring.mul
    # Rows before the first bad one are endomorphisms, so the exhaustive
    # scan's first witness lies in that row.
    bad = _first_hit(~endomorphism_rows(ring))
    witnesses = {
        "left_distributive": bad and _first_violation(
            lambda x: mul[x, add] != add[mul[x][:, None], mul[x]], range(bad[0], len(add))),
        "abelian_add": _first_hit(add != add.T),
        "zero_symmetric": _first_hit(mul[:, 0] != 0),
        "commutative_mul": _first_hit(mul != mul.T),
    }
    flags = NearRingFlags(unital=ring.one is not None,
                          **{flag: w is None for flag, w in witnesses.items()})
    return flags, tuple((flag, w) for flag, w in witnesses.items() if w is not None)


def _row_classes(t: np.ndarray) -> np.ndarray:
    """``rep[i]``: the least index whose row of ``t`` equals row i.

    Each row is viewed as one opaque byte string, so ``np.unique`` groups
    equal rows exactly; its stable sort makes ``first`` the first
    occurrence of each group."""
    rows = np.ascontiguousarray(t).view(np.dtype((np.void, t.itemsize * t.shape[1])))
    _, first, inv = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    return first[inv]


def _first_rows(t: np.ndarray) -> list[int]:
    """The first of each set of equal rows of ``t``, ascending."""
    return np.flatnonzero(_row_classes(t) == np.arange(len(t))).tolist()


def validate_group(add, labels=None) -> FiniteGroup:
    """Validate an addition table as a group with identity at index 0."""
    try:
        n = len(add)
    except TypeError:
        raise TableFormatError("add: not a list of rows") from None
    if n < 1:
        raise TableFormatError("empty addition table")
    add = _check_table(add, n, n, "add")
    j = _first_non_identity(add, 0)
    if j is not None:
        raise AxiomViolation("add_identity", j)
    gens = _generators(add)
    add_assoc = _assoc(add, add)
    if not _holds(add_assoc, gens):
        raise AxiomViolation("add_assoc", _first_violation(add_assoc, _first_rows(add)))
    # neg[i] is the least j with i+j = j+i = 0
    inverse = (add == 0) & (add.T == 0)
    w = _first_hit(~inverse.any(axis=1))
    if w is not None:
        raise AxiomViolation("add_inverse", w)
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise TableFormatError("labels: need n distinct strings")
    group = FiniteGroup(order=n, add=add, neg=inverse.argmax(axis=1), labels=labels)
    group_generators.keep(group, gens)
    return group


def validate_nearring(add, mul, one=None, labels=None, name=None,
                      **provenance) -> NearRing:
    """Validate tables as a right near-ring and resolve its unity: a declared
    ``one`` must be a two-sided identity of ``mul``; otherwise ``one`` is the
    least such identity, or None.  The flags are read later (``flag_scan``)."""
    group = validate_group(add, labels=labels)
    n, add = group.order, group.add
    mul = _check_table(mul, n, n, "mul")
    if isinstance(one, np.integer):
        one = int(one)
    if one is not None and (not isinstance(one, int) or isinstance(one, bool)
                            or not 0 <= one < n):
        raise TableFormatError(f"one: index {one!r} out of range [0,{n})")
    gens = group_generators(group)
    # Laws are reported in the order mul_assoc, right_dist: when either
    # fails, the associativity scan decides which law to report.
    if not _laws_hold(add, mul, gens):
        w = _first_violation(_assoc(mul, mul), _first_rows(mul))
        if w is not None:
            raise AxiomViolation("mul_assoc", w)
        raise AxiomViolation("right_dist", _first_violation(_additive(add, mul, add), range(n)))
    # 0*x = 0 is forced by right distributivity; a failure here means the
    # checks above are broken, not the input.
    if mul[0].any():
        raise InvariantError("0*x != 0 in a table that passed right distributivity")
    if one is not None:
        x = _first_non_identity(mul, one)
        if x is not None:
            raise AxiomViolation("unity", (one, *x), f"declared one={one} fails at {x[0]}")
    else:
        found = _first_hit(_identities(mul))
        one = found[0] if found else None
    ring = NearRing(group=group, mul=mul, one=one, name=name, **provenance)
    laws_hold.keep(ring, True)
    endomorphism_rows.keep(ring, _seal(~_left_dist_bad_rows(add, mul, gens)))
    return ring


# ---------------------------------------------------------------------------
# constructions


def build_M0(g: FiniteGroup, name=None) -> NearRing:
    """All maps g -> g fixing 0, pointwise addition, composition as product.

    Element order is lexicographic on the value vector (f(1),...,f(n-1)),
    which for g = Z3 reproduces the f1..f9 listing with f_i at index i-1.
    """
    n = g.order
    if n < 2:
        raise ValueError("base group must have order >= 2")
    order = n ** (n - 1)
    if order > DEFAULT_ORDER_CAP:
        raise CapExceeded(f"|M0(G)| = {order} exceeds cap {DEFAULT_ORDER_CAP}")
    # vals[f, x] = f(x): f(0) = 0, then the base-n digits of the index f
    weights = n ** np.arange(n - 2, -1, -1)
    vals = np.zeros((order, n), dtype=np.int64)
    vals[:, 1:] = np.arange(order)[:, None] // weights % n
    digits = list(zip(range(1, n), weights))
    add = sum(g.add[vals[:, x, None], vals[:, x]] * w for x, w in digits)  # f(x) + h(x)
    mul = sum(vals[:, vals[:, x]] * w for x, w in digits)                   # f(h(x))
    labels = tuple(f"f{i + 1}" for i in range(order))
    return validate_nearring(_seal(add), _seal(mul), labels=labels,
                             name=f"m0_order{order}" if name is None else name)


def build_product(factors, name=None) -> NearRing:
    """Componentwise direct product; element index is row-major over factors."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("need at least one factor")
    orders = [f.order for f in factors]
    total = math.prod(orders)
    if total > DEFAULT_ORDER_CAP:
        raise CapExceeded(f"product order {total} exceeds cap {DEFAULT_ORDER_CAP}")
    strides = [math.prod(orders[k + 1:]) for k in range(len(orders))]
    # parts[k][x] is the k-th component of element x
    parts = [np.arange(total) // st % o for st, o in zip(strides, orders)]
    add = sum(f.add[p[:, None], p] * st for f, st, p in zip(factors, strides, parts))
    mul = sum(f.mul[p[:, None], p] * st for f, st, p in zip(factors, strides, parts))
    labels = None
    if all(f.group.labels for f in factors):
        labels = tuple(
            "(" + ",".join(f.label(c) for f, c in zip(factors, x)) + ")"
            for x in zip(*(p.tolist() for p in parts))
        )
    one = None
    if all(f.one is not None for f in factors):
        one = sum(f.one * st for f, st in zip(factors, strides))
    return validate_nearring(_seal(add), _seal(mul), one=one, labels=labels, name=name,
                             factors=factors)


def build_extension(ring: NearRing, module, name=None) -> NearRing:
    """Carrier R x M with <a1,m1>*<a2,m2> = <a1*a2, a1*m2 + m1>.

    Unital with one = <1,0>; not zero-symmetric unless M is trivial.
    ``module`` is an NModule over ``ring`` (see nearrings.nmodules).
    """
    if module.ring is not ring and not same_tables(module.ring, ring):
        raise ValueError("module is not over the given ring")
    if not (ring.flags.abelian_add and ring.flags.left_distributive and ring.flags.unital):
        raise ValueError("extension base must be a unital ring")
    r_n, m_n = ring.order, module.carrier.order
    total = r_n * m_n
    if total > DEFAULT_ORDER_CAP:
        raise CapExceeded(f"extension order {total} exceeds cap {DEFAULT_ORDER_CAP}")
    # element <a, m> has index a * m_n + m
    a, m = np.divmod(np.arange(total), m_n)
    a1, a2, m1, m2 = a[:, None], a[None, :], m[:, None], m[None, :]
    madd = module.carrier.add
    add = ring.add[a1, a2] * m_n + madd[m1, m2]
    mul = ring.mul[a1, a2] * m_n + madd[module.action[a1, m2], m1]
    labels = None
    if ring.group.labels and module.carrier.labels:
        labels = tuple(
            f"({ring.label(a)}|{module.carrier.label(m)})"
            for a in range(r_n) for m in range(m_n)
        )
    return validate_nearring(_seal(add), _seal(mul), one=ring.one * m_n, labels=labels,
                             name=name, extension=(ring, module))


# ---------------------------------------------------------------------------
# NearRing Table Format v1


@dataclass(frozen=True, eq=False)
class RawTables:
    name: str
    order: int
    labels: Optional[tuple[str, ...]]
    add: np.ndarray
    mul: np.ndarray
    one: Optional[int]


_MAX_DIGITS = len(str(DEFAULT_ORDER_CAP))
# The class of each byte, for bytes.translate: 0 for a byte that cannot
# occur in a table, then JSON whitespace, digit, bracket or comma.
_SPACE, _DIGIT, _PUNCT = 1, 2, 3
_BYTE_CLASS = bytes(_SPACE if c in b" \t\n\r" else _DIGIT if c in b"0123456789"
                    else _PUNCT if c in b"[]," else 0 for c in range(256))
_DECODER = json.JSONDecoder()


def _read_table(text: str, idx: int, n: int):
    """The n x n table whose JSON value starts at ``text[idx]``, as a
    read-only int64 array, and the index just past its closing ``]``; None
    unless the value is n rows of n unsigned integers of 1 to
    ``_MAX_DIGITS`` digits without a leading zero, with JSON whitespace
    between tokens only.  Only the text up to the next ``"`` is encoded,
    and a non-ASCII character in it raises ``UnicodeEncodeError``."""
    stop = text.find('"', idx)
    span = text[idx:stop if stop >= 0 else len(text)].encode("ascii")
    b = np.frombuffer(span, dtype=np.uint8)
    kind = np.frombuffer(span.translate(_BYTE_CLASS), dtype=np.uint8)
    # The value's brackets and commas: [, then n rows of [ (n-1)x, ] joined
    # by commas, then ]; that is (n+1)^2 of them.
    m = (n + 1) ** 2
    punct = np.flatnonzero(kind == _PUNCT)[:m].astype(np.int32)
    row = b"[" + b"," * (n - 1) + b"]"
    if len(punct) < m or b[punct].tobytes() != b"[" + b",".join([row] * n) + b"]":
        return None
    end = int(punct[-1]) + 1
    if not kind[:end].all():
        return None
    # Digit runs alternate start, stop.  Run k must sit alone between the
    # k-th row-[ or in-row comma and the bracket or comma after it, so a
    # run in any other gap, two runs in one gap (whitespace inside a
    # number) or an empty gap is refused.
    edges = np.flatnonzero(np.diff(kind[:end] == _DIGIT, prepend=False)).astype(np.int32)
    starts, stops = edges[0::2], edges[1::2]
    if len(starts) != n * n:
        return None
    width = stops - starts
    before = (np.arange(n, dtype=np.int32)[:, None] * (n + 2)
              + np.arange(1, n + 1, dtype=np.int32)).ravel()
    if (width.max() > _MAX_DIGITS or ((width > 1) & (b[starts] == ord("0"))).any()
            or not ((punct[before] < starts) & (stops <= punct[before + 1])).all()):
        return None
    # Place values: the k-th digit from the right of every run at once (for
    # a run shorter than k+1 the index may reach -1, and counts 0 times).
    last = stops - 1
    values = (b[last] - ord("0")).astype(np.int64)
    for k in range(1, int(width.max())):
        values += (width > k) * (b[last - k] - ord("0")) * np.int64(10 ** k)
    return _seal(values.reshape(n, n)), idx + end


def _read_document(text: str) -> Optional[dict]:
    """The JSON object ``text`` as ``json.loads`` gives it, except that
    ``add`` and ``mul`` are decoded by ``_read_table`` (so they must come
    after a valid ``order``).  None for any other text, which ``json.loads``
    then reads, or refuses with its own message."""
    end = len(text)
    while end and text[end - 1] in " \t\n\r":
        end -= 1
    if text[end - 1:end] != "}":  # truncated: bail out before any scan
        return None
    skip = json.decoder.WHITESPACE.match
    idx = skip(text, 0).end()
    if text[idx:idx + 1] != "{":
        return None
    idx = skip(text, idx + 1).end()
    doc: dict = {}
    try:
        while True:
            if text[idx:idx + 1] != '"':
                return None
            key, idx = json.decoder.scanstring(text, idx + 1)
            idx = skip(text, idx).end()
            if text[idx:idx + 1] != ":":
                return None
            idx = skip(text, idx + 1).end()
            if key in ("add", "mul"):
                n = doc.get("order")
                table = (_read_table(text, idx, n) if type(n) is int
                         and 1 <= n <= DEFAULT_ORDER_CAP else None)
                if table is None:
                    return None
                doc[key], idx = table
            else:
                doc[key], idx = _DECODER.raw_decode(text, idx)
            idx = skip(text, idx).end()
            if text[idx:idx + 1] != ",":
                break
            idx = skip(text, idx + 1).end()
    except (ValueError, RecursionError):
        return None
    return doc if idx == end - 1 else None


def parse_table(data) -> RawTables:
    """Parse a NearRing Table Format v1 document; shape checks only.

    ``_read_document`` reads the usual document in one pass: each member
    but ``add`` and ``mul`` through the ``json`` scanner, and each table,
    when it follows a valid ``order``, from its characters in numpy (about
    10 ms for a whole order-256 document).  Any other document, and every
    malformed one, goes through ``json.loads``, which is 2 to 3 times slower
    since it builds a Python int per entry, and alone words the JSON errors.
    Both feed the same field checks below."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    doc = _read_document(data) if isinstance(data, str) else None
    if doc is None:
        try:
            doc = json.loads(data)
        except (ValueError, RecursionError) as exc:  # also an over-long int, deep nesting
            raise TableFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TableFormatError("document must be a JSON object")
    if doc.get("format") != TABLE_FORMAT:
        raise TableFormatError(f'missing or unsupported "format" (want {TABLE_FORMAT!r})')
    for key in ("name", "order", "add", "mul"):
        if key not in doc:
            raise TableFormatError(f'missing required field "{key}"')
    name = doc["name"]
    if not isinstance(name, str):
        raise TableFormatError('"name" must be a string')
    n = doc["order"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise TableFormatError('"order" must be a positive integer')
    if n > DEFAULT_ORDER_CAP:
        raise CapExceeded(f"order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    add = _check_table(doc["add"], n, n, "add")
    mul = _check_table(doc["mul"], n, n, "mul")
    labels = None
    if doc.get("labels") is not None:
        labels = doc["labels"]
        if (not isinstance(labels, list) or len(labels) != n
                or not all(isinstance(s, str) for s in labels)):
            raise TableFormatError('"labels" must be a list of n strings')
        if len(set(labels)) != n:
            raise TableFormatError('"labels" contains duplicates')
        labels = tuple(labels)
    one = doc.get("one")
    if one is not None and (not isinstance(one, int) or isinstance(one, bool)
                            or not 0 <= one < n):
        raise TableFormatError(f'"one" index {one!r} out of range [0,{n})')
    return RawTables(name=name, order=n, labels=labels, add=add, mul=mul, one=one)


def from_document(raw: RawTables) -> NearRing:
    """Validate parsed tables; re-indexes so the additive identity sits at 0."""
    add, mul, labels, one = raw.add, raw.mul, raw.labels, raw.one
    found = _first_hit(_identities(add))
    if found and found[0] != 0:
        e = found[0]
        old = np.concatenate(([e], np.arange(e), np.arange(e + 1, raw.order)))  # new -> old
        new = np.empty_like(old)                                                # old -> new
        new[old] = np.arange(raw.order)
        add = new[add[old[:, None], old]]
        mul = new[mul[old[:, None], old]]
        if labels:
            labels = tuple(labels[i] for i in old.tolist())
        if one is not None:
            one = int(new[one])
    return validate_nearring(_seal(add), _seal(mul), one=one, labels=labels, name=raw.name)


def load_nearring(path) -> NearRing:
    with open(path, "rb") as fh:
        return from_document(parse_table(fh.read()))


def to_document(ring: NearRing) -> dict:
    doc = {"format": TABLE_FORMAT, "name": ring.name or "nearring", "order": ring.order}
    if ring.group.labels:
        doc["labels"] = list(ring.group.labels)
    doc["add"] = ring.add.tolist()
    doc["mul"] = ring.mul.tolist()
    if ring.one is not None:
        doc["one"] = ring.one
    return doc


def emit_table(ring: NearRing) -> str:
    return json.dumps(to_document(ring), separators=(",", ":")) + "\n"
