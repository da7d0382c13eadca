"""Table-based finite right near-rings: validation, construction, serialization.

Everything is an index table: a group of order n is an n-by-n addition table
over element indices 0..n-1, and a near-ring adds an n-by-n multiplication
table on top.

Each table law is written once, as a row function (``_law``): given a row r
it returns the first (s, m), in row-major order, where the law fails, or
None.  ``_assoc`` is (r.s).m = r.(s.m) and ``_additive`` is
(r+s).m = r.m + s.m, for an action of a near-ring on a group; a near-ring's
laws are ``_assoc(add, add)``, ``_assoc(mul, mul)`` and
``_additive(add, mul, add)``, the two module laws of its regular
representation plus associativity of +.  The same row functions serve
``nmodules.validate_module``.

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
  ((r1+r2)*s)*m = (r1*s)*m + (r2*s)*m = r1*(s*m) + r2*(s*m) = (r1+r2)*(s*m);
- left distributivity of row r, i.e. y -> r*y an endomorphism of (N,+),
  given right distributivity and abelian + (Froehlich, *Distributively
  generated near-rings I*, Proc. LMS (3) 8, 1958):
  (r1+r2)*(y+z) = r1*y + r1*z + r2*y + r2*z = r1*y + r2*y + r1*z + r2*z
                = (r1+r2)*y + (r1+r2)*z.

In a row x, the y with x*(y+z) = x*y + x*z for all z are closed under +
too, given associative +: x*((y1+y2)+z) = x*y1 + x*(y2+z) = x*(y1+y2) + x*z.
So ``_first_witness`` reads the first witness of ``_left_dist`` as the
first row failing with y in S, then its first (y, z) over N.

``_laws_hold`` checks right distributivity, then associativity, over S: the
one law predicate, exact for any table over a group.  ``validate_nearring``
calls it on the raw tables and stores its verdict, ``True``, as
``laws_hold(ring)`` in the ring's ``derived`` cache; every other caller
reads that.  The flags and their witnesses (``flag_scan``, read through
``ring.flags`` and ``ring.flag_witnesses``) are computed from the ring's
own tables on first read.  Left distributivity needs no whole-ring scan
when (N,+) is abelian and ``laws_hold``: then no S row failing, checked in
O(|S|^2 n), proves that no row fails; otherwise ``_first_witness`` scans
every row.  A ``dataclasses.replace`` copy starts with an empty cache and
computes all of these from its own tables, so no caller needs to know how
a ring was made.

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
is stored once, as a read-only ``TABLE_DTYPE`` (int16) array, converted on
construction (also by ``dataclasses.replace``); ``.tolist()`` gives nested
lists.  Equality of these dataclasses is identity; compare tables with
``np.array_equal``.  Every entry is an index below the order, and the order
is at most ``DEFAULT_ORDER_CAP`` = 4096 < 2^15, so int16 holds every entry
at a quarter of the bytes of int64: an order-4096 table takes 33.5 MB, an
order-1024 one 2.1 MB.  A value int16 cannot hold is refused
(``_as_table``), never wrapped.

The table holders stay dataclasses, since ``dataclasses.replace`` is their
copy path.  The package's value records (``NearRingFlags`` and ``RawTables``
here; ``IdealVerdict``, ``Quotient``, ``HomResult`` and ``IsoResult`` in
``nmodules``; the verdicts and profiles of ``classify``; the reports of
``theorems``) are ``typing.NamedTuple``s, which take a fraction of a
dataclass's time to define at import: tuple equality, ``_fields`` and
``_replace``.  ``RawTables`` holds arrays, so its equality stays identity.

Under NumPy 2 promotion an int16 array times or plus a Python int, or plus
another int16 array, stays int16 and wraps silently on overflow, so each
construction that computes entries keeps them below its order: in
``build_product`` the entry of x is the sum over factors of (component <
o_k) * stride_k, at most total - 1; in ``build_M0`` it is the sum over x of
(value < n) * n^(n-1-x), at most n^(n-1) - 1; in ``build_extension`` it is
a * |M| + m with a < |R| and m < |M|, at most |R||M| - 1; every factor and
stride is a Python int at most the order.  ``_decode_rows`` decodes at
most ``_MAX_DIGITS`` = 4 digits, below 10^4 < 2^15, and ``_put_first``
only relabels indices below n.

The same rule holds for an index.  The hot gathers of the law, flag and
closure scans read a table t of order n as one flat array, with
``t.reshape(-1).take(a * n + b)`` for ``t[a, b]``: one 1-D gather instead
of a 2-D fancy index.  That flat index reaches n^2 - 1, which int16 holds
only up to n = 181, so it is always built in intp: ``a`` is cast with
``astype(np.intp)`` (or is an intp index already) before it is multiplied,
never after; an int16 ``a * n`` wraps from n = 182 on.

``parse_table`` reads a table document in one of two ways, with the same
field checks after either.  ``_read_document`` streams it from a seekable
binary file (bytes and str are wrapped as one, a pipe is read whole first):
it walks the top-level object with the ``json`` scanner on a window of
decoded text, and decodes ``add`` and ``mul`` from their bytes in numpy, a
block of whole rows at a time, when they hold n rows of n unsigned
integers without leading zeros, n being the ``order`` before them or,
for a table before ``order``, the entry count of its first row.  The
scanner decodes every other member and any table the reader refuses, from
that table's start; a ``json.JSONDecodeError`` it raises there is the
error ``json.loads`` would raise, at the same line, column and character
of the whole document, and text that is not UTF-8 raises the whole
document's ``UnicodeDecodeError``.  A document with an ``order``, or a
first row before it, outside [1, ``DEFAULT_ORDER_CAP``], or that the
scanner refuses otherwise (deep nesting, an over-long int), is read whole
and goes through ``json.loads``.

The reader decodes a block from the positions of its separators
(``_decode_rows``): one ``flatnonzero`` finds the bytes that are not
digits, which must be exactly the brackets and commas of the block's
rows; the gaps between them, the differences of successive positions,
must hold 1 to 4 digits where a number sits and none elsewhere; and each
number is one unaligned little-endian 4-byte gather that ends at its last
digit, masked to its width and summed in two SWAR steps (pairs of digits,
then pairs of pairs), a leading zero being a value below 10^(w-1) for
width w > 1.  So the work per block is a fixed number of numpy calls over
its bytes and numbers, with no loop over digit places.

Loading a table holds the final tables and buffers of O(``_BLOCK``) bytes:
the reader reads at most ``_BLOCK`` = 32 KiB of the file at a time (one row
at least, which is longer only for indented tables of order in the
thousands), and never the whole text; ``load_nearring`` re-indexes the
reader's own tables in place (``_put_first``), while ``from_document``
copies a caller's first.  No loop over rows or blocks, in the reader, the
re-indexing, the range check of ``_check_table``, or the law, flag and
group scans, allocates a temporary of more than ``_TEMP_BYTES`` (64 KiB),
but one row of a reduced scan, 8 |S| n bytes (384 KiB at order 4096 with
|S| = 12): the scans work on row blocks (``_row_blocks``), and a row
function fills one reused block at a time.  A block is sized by the bytes
per row of its largest temporary: one byte an entry for a bool mask, two
for an int16 gather, and eight where a block is cast to intp to index with,
and for a flat index a * n + b, which is intp like the casts it replaces.
numpy casts an int16 fancy index itself through a small buffer, with no
temporary, but in about twice the time of ``astype(np.intp)``; so a loop
that indexes with table blocks casts each block once itself (or gathers
with ``take``, which casts too), inside that 8-byte budget, while a one-off
gather over a whole table leaves the cast to numpy.  So loading and
validating a table touches little memory beyond the tables themselves, and
few fresh pages: at order 1024 (an 8.2 MB document) the peak RSS of the
``validate`` command is 5.7 MB above that of the import, 4 MB of it the two
tables (Linux, numpy 2.4).
"""
from __future__ import annotations

import bisect
import codecs
import functools
import io
import itertools
import json
import json.decoder
import math
from dataclasses import dataclass, field
from typing import BinaryIO, NamedTuple, Optional

import numpy as np

# Construction refuses anything larger than this.
DEFAULT_ORDER_CAP = 4096
# The one dtype of every table: it holds every index below the cap.
TABLE_DTYPE = np.int16
_TABLE_MIN, _TABLE_MAX = int(np.iinfo(TABLE_DTYPE).min), int(np.iinfo(TABLE_DTYPE).max)

# The most bytes that one temporary of a loop over rows or blocks may take.
_TEMP_BYTES = 1 << 16

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
    """``table`` as a read-only, C-contiguous ``TABLE_DTYPE`` array, so
    that ``reshape(-1)`` is a view of it.  One that already is that is kept;
    anything else, a caller's writable array included, is copied.  An entry
    that ``TABLE_DTYPE`` cannot hold raises ``TableFormatError`` instead of
    wrapping."""
    if (isinstance(table, np.ndarray) and table.dtype == TABLE_DTYPE
            and not table.flags.writeable and table.flags.c_contiguous):
        return table
    arr = np.asarray(table)
    if (arr.size and not np.can_cast(arr.dtype, TABLE_DTYPE)
            and (arr.min() < _TABLE_MIN or arr.max() > _TABLE_MAX)):
        raise TableFormatError(f"table entry out of the {np.dtype(TABLE_DTYPE)} range "
                               f"[{_TABLE_MIN},{_TABLE_MAX}]")
    return _seal(arr.astype(TABLE_DTYPE, order="C"))


class _Tables:
    """Base of the dataclasses that hold tables: on construction, including
    ``dataclasses.replace``, each field named in ``_TABLES`` becomes a
    read-only ``TABLE_DTYPE`` array (``_as_table``)."""

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


class NearRingFlags(NamedTuple):
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
    memoised there (``laws_hold`` and the ``flags`` with their
    ``flag_witnesses`` included) is computed from its own tables.
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
    """``table`` as a read-only ``TABLE_DTYPE`` ``rows`` x ``cols`` array of
    indices in [0, cols).  Fast path: an integer array, or nested lists of
    exactly ``int`` (not ``bool``), of the right shape, is range-checked as
    it is given (lists as int64), before any conversion, so an entry that
    ``TABLE_DTYPE`` cannot hold is named like any other; a failing check is
    rescanned in row blocks for the first out-of-range entry in row-major
    order.  Anything else takes the loop below, which names the first
    offending row or entry; a table or row that is not a list (a number,
    null, a JSON object) is refused as such."""
    arr = None
    if isinstance(table, np.ndarray):
        if np.issubdtype(table.dtype, np.integer) and table.shape == (rows, cols):
            arr = table
    elif (isinstance(table, (list, tuple)) and len(table) == rows
          and all(isinstance(row, (list, tuple)) and len(row) == cols for row in table)
          and set(map(type, itertools.chain.from_iterable(table))) <= {int}):
        try:
            arr = np.array(table, dtype=np.int64)
        except OverflowError:  # an entry beyond int64; the loop reports it
            pass
    if arr is not None:
        if arr.min() >= 0 and arr.max() < cols:
            return _as_table(arr)
        i, j = _first_hit_in_blocks(lambda b: (arr[b] < 0) | (arr[b] >= cols), rows, cols)
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


def _row_blocks(rows: int, row_bytes: int) -> list[slice]:
    """Consecutive slices of ``rows`` rows of ``row_bytes`` bytes each, as
    many rows as fit in ``_TEMP_BYTES`` (at least one) per slice."""
    step = max(1, _TEMP_BYTES // row_bytes)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _identities(t: np.ndarray) -> np.ndarray:
    """Bool vector: entry e says whether e is a two-sided identity of ``t``."""
    n = len(t)
    idx = np.arange(n, dtype=t.dtype)
    left, right = np.empty(n, dtype=bool), np.ones(n, dtype=bool)
    for rows in _row_blocks(n, n):
        left[rows] = (t[rows] == idx).all(axis=1)
        right &= (t[rows] == idx[rows, None]).all(axis=0)
    return left & right


def _first_asymmetry(t: np.ndarray) -> Optional[tuple[int, int]]:
    """The first (i, j) in row-major order with t[i, j] != t[j, i], or None."""
    return _first_hit_in_blocks(lambda b: t[b] != t.T[b], len(t), len(t))


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
    idx = np.arange(len(t), dtype=t.dtype)
    return _first_hit((t[e] != idx) | (t[:, e] != idx))


def _extend_closure(add: np.ndarray, reached: np.ndarray, s: int) -> None:
    """Add ``s`` to the +-closed bool mask ``reached`` and close it again,
    in place.  Semi-naive: only sums with a newly reached element can be new.
    """
    n, flat = len(add), add.reshape(-1)
    reached[s] = True
    frontier = np.array([s], dtype=np.intp)
    while len(frontier):
        members = reached.nonzero()[0]
        new = np.zeros(n, dtype=bool)
        for rows in _row_blocks(len(frontier), 8 * len(members)):
            f = frontier[rows]
            new[flat.take(f[:, None] * n + members).astype(np.intp, copy=False)] = True
            new[flat.take(members[:, None] * n + f).astype(np.intp, copy=False)] = True
        new[members] = False
        reached |= new
        frontier = new.nonzero()[0]


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


def _law(fill, shape):
    """A row function from ``fill(r, rows, out)``, which writes into
    ``out`` the bool table of row r over a block of rows of s, True where
    the law fails.  ``first(r)`` gives the first failing (s, m) of row r in
    row-major order, or None: it fills one block at a time into one reused
    buffer, so that no temporary exceeds ``_TEMP_BYTES`` (the fills gather
    with flat intp indices of a block, 8 bytes an entry), and stops at the
    first block with a failure."""
    n = shape[0]
    blocks = _row_blocks(n, 8 * shape[1])
    block = np.empty((min(blocks[0].stop, n), shape[1]), dtype=bool)
    views = [(rows, block[:len(range(n)[rows])]) for rows in blocks]

    def first(r):
        for rows, out in views:
            fill(r, rows, out)
            hit = _first_hit(out)
            if hit:
                return rows.start + hit[0], hit[1]
        return None

    return first


def _assoc(rmul: np.ndarray, act: np.ndarray):
    """Row function of (r.s).m = r.(s.m): row r gives its first failing
    (s, m)."""
    return _law(lambda r, s, out: np.not_equal(
        act.take(rmul[r, s], axis=0), act[r].take(act[s]), out=out), act.shape)


def _additive(radd: np.ndarray, act: np.ndarray, madd: np.ndarray):
    """Row function of (r+s).m = r.m + s.m: row r gives its first failing
    (s, m)."""
    m, flat = len(madd), madd.reshape(-1)

    def fill(r, s, out):  # the flat index built in place: one intp block
        idx = act[s].astype(np.intp)
        idx += act[r].astype(np.intp) * m
        np.not_equal(act.take(radd[r, s], axis=0), flat.take(idx), out=out)

    return _law(fill, act.shape)


def _left_dist(add: np.ndarray, mul: np.ndarray):
    """``bad(xs, ys)``: x*(y+z) != x*y + x*z over index arrays xs, ys and
    every z (``_first_witness``)."""
    n, flat = len(add), add.reshape(-1)

    def bad(xs, ys):
        rows = mul[xs]
        return flat.take((rows[:, ys].astype(np.intp) * n)[:, :, None] + rows[:, None, :]) \
            != rows.take(add[ys], axis=1)

    return bad


def _holds(law, rows) -> bool:
    """No row in ``rows`` has a failure of the ``_law`` row function ``law``."""
    return not any(law(r) for r in rows)


def _laws_hold(add: np.ndarray, mul: np.ndarray, gens) -> bool:
    """Right distributivity and associativity of ``mul``, over generators."""
    return _holds(_additive(add, mul, add), gens) and _holds(_assoc(mul, mul), gens)


def _first_violation(law, rows) -> Optional[tuple[int, ...]]:
    """The first (r, *law(r)), r ascending over ``rows``, or None."""
    return next(((int(r), *hit) for r in rows if (hit := law(r))), None)


def _first_hit_in_blocks(bad, rows: int, row_bytes: int) -> Optional[tuple[int, ...]]:
    """``_first_hit`` over ``rows`` rows, one block at a time: ``bad(block)``
    gives the bool table of the row slice ``block``, ``row_bytes`` bytes a
    row of its largest temporary (``_row_blocks``; none for an empty table)."""
    for block in _row_blocks(rows, max(row_bytes, 1)):
        hit = _first_hit(bad(block))
        if hit:
            return (block.start + hit[0], *hit[1:])
    return None


def _first_witness(bad, rows: np.ndarray, gens, members: np.ndarray,
                   width: int) -> Optional[tuple[int, ...]]:
    """(r, l, *rest): the first r of ``rows`` whose row of ``bad(rs, ls)``
    (bool, over index arrays, ``width`` entries of 8 bytes at most per (r, l))
    fails with l over ``gens``, then its first (l, *rest), l over
    ``members``, which must fail on the same rows; or None."""
    hit = _first_hit_in_blocks(lambda b: bad(rows[b], gens), len(rows), 8 * len(gens) * width)
    if hit is None:
        return None
    row = rows[hit[0]:hit[0] + 1]
    li, *rest = _first_hit_in_blocks(lambda b: bad(row, members[b])[0], len(members), 8 * width)
    return (int(row[0]), int(members[li]), *rest)


@memoized
def laws_hold(ring: NearRing) -> bool:
    """``_laws_hold`` on the ring's own tables, over ``group_generators``."""
    return _laws_hold(ring.add, ring.mul, group_generators(ring.group))


@memoized
def flag_scan(ring: NearRing) -> tuple[NearRingFlags, tuple[tuple[str, tuple[int, ...]], ...]]:
    """Exact flag scans on the ring's own tables: the flags, and the first
    witness of each flag that fails (``NearRing.flag_witnesses``)."""
    add, mul, n = ring.add, ring.mul, ring.order
    abelian = _first_asymmetry(add)
    gens = np.array(group_generators(ring.group), dtype=np.intp)
    left, rows = _left_dist(add, mul), np.arange(n)
    # Froehlich (module docstring): no generator row failing proves that no row does.
    froehlich = (abelian is None and laws_hold(ring)
                 and _first_witness(left, gens, gens, rows, n) is None)
    witnesses = {
        "left_distributive": None if froehlich else _first_witness(left, rows, gens, rows, n),
        "abelian_add": abelian,
        "zero_symmetric": _first_hit(mul[:, 0] != 0),
        "commutative_mul": _first_asymmetry(mul),
    }
    flags = NearRingFlags(unital=ring.one is not None,
                          **{flag: w is None for flag, w in witnesses.items()})
    return flags, tuple((flag, w) for flag, w in witnesses.items() if w is not None)


def _row_classes(t: np.ndarray) -> np.ndarray:
    """``rep[i]``: the least index whose row of ``t`` equals row i.

    Each row is viewed as one opaque byte string and sorted stably, so equal
    rows are adjacent and in index order; sorted neighbours are compared in
    row blocks, and each row takes the first index of its run."""
    n, t = len(t), np.ascontiguousarray(t)
    row_bytes = t.itemsize * t.shape[1]
    order = t.view(np.dtype((np.void, row_bytes))).ravel().argsort(kind="stable")
    starts = np.ones(n, dtype=bool)  # sorted position p starts a run of equal rows
    for rows in _row_blocks(n - 1, row_bytes):
        starts[1:][rows] = (t[order[1:][rows]] != t[order[:-1][rows]]).any(axis=1)
    rep = np.empty(n, dtype=np.int64)
    rep[order] = order[np.maximum.accumulate(np.where(starts, np.arange(n), 0))]
    return rep


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
    neg = np.empty(n, dtype=TABLE_DTYPE)
    for rows in _row_blocks(n, n):
        inverse = (add[rows] == 0) & (add.T[rows] == 0)
        w = _first_hit(~inverse.any(axis=1))
        if w is not None:
            raise AxiomViolation("add_inverse", (rows.start + w[0],))
        neg[rows] = inverse.argmax(axis=1)
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise TableFormatError("labels: need n distinct strings")
    group = FiniteGroup(order=n, add=add, neg=_seal(neg), labels=labels)
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
    weights = [n ** k for k in range(n - 2, -1, -1)]
    vals = np.zeros((order, n), dtype=TABLE_DTYPE)
    vals[:, 1:] = np.arange(order)[:, None] // np.array(weights) % n
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


class RawTables(NamedTuple):
    """A parsed document's fields, before validation.  It holds arrays, so
    its equality is identity, as for the table dataclasses."""

    name: str
    order: int
    labels: Optional[tuple[str, ...]]
    add: np.ndarray
    mul: np.ndarray
    one: Optional[int]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


_MAX_DIGITS = len(str(DEFAULT_ORDER_CAP))
# The most bytes of a document that the reader reads at a time, and of
# table text that ``_read_table`` decodes as one block, unless one row is
# longer; the ``json`` scanner's window grows past it only for a member
# that does not fit.
_BLOCK = 1 << 15
_SPACES = b" \t\n\r"
_SPACE_BYTES = tuple(bytes([c]) for c in _SPACES)  # a memchr each: cheaper than translate when absent
_PAD = bytes(_MAX_DIGITS - 1)  # zero bytes before a block, for the word of its first number
# Indexed by one more than a number's width w (clipped to 6): the top w
# bytes of a 4-byte word, 0 for no digits or more than 4; and the least
# w-digit number without a leading zero.
_WIDTH_MASK = np.array([0, 0, 0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF, 0], dtype=np.uint32)
_LEAST = np.array([0, 0, 0, 10, 100, 1000, 0], dtype=np.uint32)
_DECODER = json.JSONDecoder()


def _decode_rows(raw: bytes, opener: bytes, n: int, out: np.ndarray) -> bool:
    """Decode ``raw``, the text of k = ``len(out) // n`` whole rows of an
    order-n table from the byte before the first row's [ through the k-th
    row's ], into ``out``, one entry per number; False unless that byte is
    ``opener`` (the table's [, or the comma before a later row) and the
    text is k rows of n unsigned integers of 1 to ``_MAX_DIGITS`` digits
    without a leading zero, with JSON whitespace between tokens only.

    A number has no whitespace inside it when the text has as many runs of
    digits with its whitespace as without.  Without it, the non-digit bytes
    (``flatnonzero``) must be exactly the brackets and commas of k rows.
    They fix the gaps where numbers sit: the one after a row's [ and after
    each comma inside a row hold 1 to ``_MAX_DIGITS`` digits, every other
    gap none.  A number that ends at byte e is then the little-endian
    4-byte word of bytes e-3..e (``_MAX_DIGITS`` = 4), of which its width w
    keeps the top w bytes (``_WIDTH_MASK``); xor 0x30 per byte gives its
    digits, the least significant in the top byte, and two SWAR steps sum
    the byte pairs, then the 16-bit halves.  It has a leading zero when w >
    1 and it is below 10^(w-1)."""
    text = raw.translate(None, _SPACES) if any(c in raw for c in _SPACE_BYTES) else raw
    if len(text) < len(raw):
        is_digit = np.frombuffer(raw, dtype=np.uint8) - np.uint8(ord("0")) < 10
        if np.count_nonzero(is_digit[1:] > is_digit[:-1]) != len(out):
            return False
    buf = _PAD + text
    chars = np.frombuffer(buf, dtype=np.uint8)[len(_PAD):]
    sep = np.flatnonzero(chars - np.uint8(ord("0")) >= 10)  # wraps below "0"
    row = b"[" + b"," * (n - 1) + b"]"
    k = len(out) // n
    if (len(sep) != k * (n + 2) or sep[0]
            or chars[sep].tobytes() != opener + b",".join([row] * k)):
        return False
    # gap[r, c]: one more than the digits after the c-th separator of row r,
    # the separator before its [ the 0-th; the text ends at the last ]
    gap = np.empty(len(sep), dtype=np.intp)
    np.subtract(sep[1:], sep[:-1], out=gap[:-1])
    gap[-1] = len(chars) - sep[-1]
    gap = gap.reshape(k, n + 2)
    numbers = gap[:, 1:-1]  # the gaps where a number sits
    mask = _WIDTH_MASK.take(numbers, mode="clip")
    if (gap[:, ::n + 1] != 1).any() or not mask.all():
        return False
    words = np.ndarray((len(chars),), dtype="<u4", buffer=buf, strides=(1,))  # bytes e-3..e
    value = words.take(sep.reshape(k, n + 2)[:, 2:] - 1)
    value ^= np.uint32(0x30303030)
    value &= mask
    value = (value * np.uint32(10) + (value >> np.uint32(8))) & np.uint32(0x00FF00FF)
    value = (value * np.uint32(100) + (value >> np.uint32(16))) & np.uint32(0xFFFF)
    if (value < _LEAST.take(numbers, mode="clip")).any():
        return False
    out[...] = value.reshape(-1)
    return True


def _open(data) -> tuple[BinaryIO, str]:
    """``data`` as a seekable binary file, and the UTF-8 error handler that
    its text decodes with.  Bytes are wrapped as they are (``io.BytesIO``
    shares them until written to); a str is encoded once, with
    "surrogatepass" both ways so that its text decodes to itself; a binary
    file that cannot seek (a pipe) is read whole."""
    if isinstance(data, str):
        return io.BytesIO(data.encode("utf-8", "surrogatepass")), "surrogatepass"
    if isinstance(data, (bytes, bytearray, memoryview)):
        return io.BytesIO(data), "strict"
    if not hasattr(data, "read"):
        raise TypeError(f"a table document is a str, bytes or a binary file, "
                        f"not {type(data).__name__}")
    return (data if data.seekable() else io.BytesIO(data.read())), "strict"


def _decoded(fh: BinaryIO, errors: str) -> str:
    """The whole document as text, in one decode: the text ``json.loads``
    reads, and the whole document's ``UnicodeDecodeError``."""
    fh.seek(0)
    return fh.read().decode("utf-8", errors)


class _Text:
    """The text of a document from byte ``start`` on, decoded as far as it
    has been read.  ``more`` reads about as much again as ``text`` holds
    (``_BLOCK`` bytes at least), so a ``json`` scanner step that runs into
    the end of ``text`` is retried on a longer window (``scan``)."""

    def __init__(self, fh: BinaryIO, errors: str, start: int):
        self.fh, self.errors, self.start = fh, errors, start
        self.text, self.eof, self._read = "", False, start
        self._decoder = codecs.getincrementaldecoder("utf-8")(errors)

    def more(self, least: int = 0) -> bool:
        """Decode the next bytes, ``least`` of them at least, onto ``text``;
        False, with nothing more to decode, at the end of input.  A byte
        that is not UTF-8 raises the whole document's ``UnicodeDecodeError``
        (``_decoded``)."""
        if self.eof:
            return False
        self.fh.seek(self._read)
        chunk = self.fh.read(max(_BLOCK, len(self.text), least))
        self._read += len(chunk)
        self.eof = not chunk
        try:
            self.text += self._decoder.decode(chunk, final=self.eof)
        except UnicodeDecodeError:
            _decoded(self.fh, self.errors)
            raise
        return not self.eof

    def skip(self, idx: int) -> int:
        """The index of the first character from ``idx`` on that is not JSON
        whitespace, or ``len(text)`` at the end of input."""
        while True:
            idx = json.decoder.WHITESPACE.match(self.text, idx).end()
            if idx < len(self.text) or not self.more():
                return idx

    def scan(self, step, idx: int):
        """``step(text, idx)``, a ``json`` scanner step that returns a value
        and the index past it, on a window long enough to decide it.  The
        scanner reads left to right, so only a step that fails or ends at
        the end of input is final; while input remains, it is retried after
        ``more``.  A final ``json.JSONDecodeError`` is raised at its place
        in the whole document."""
        while True:
            try:
                value, end = step(self.text, idx)
            except json.JSONDecodeError as exc:
                if not self.more():
                    raise self._relocated(exc) from None
                continue
            if end < len(self.text) or not self.more():
                return value, end

    def offset(self, idx: int) -> int:
        """The byte offset in the document of ``text[idx]``."""
        return self.start + len(self.text[:idx].encode("utf-8", self.errors))

    def _before(self):
        """The text before ``start``, decoded again a ``_BLOCK`` at a time."""
        decoder = codecs.getincrementaldecoder("utf-8")(self.errors)
        self.fh.seek(0)
        left = self.start
        while left > 0 and (chunk := self.fh.read(min(_BLOCK, left))):
            left -= len(chunk)
            yield decoder.decode(chunk)

    def _relocated(self, exc: json.JSONDecodeError) -> json.JSONDecodeError:
        """``exc`` with the character position, line and column that
        ``json.loads`` reports for it over the whole document."""
        chars, lines, last = 0, 0, -1  # last: the position of the last newline
        for text in itertools.chain(self._before(), [self.text[:exc.pos]]):
            if "\n" in text:
                last = chars + text.rindex("\n")
                lines += text.count("\n")
            chars += len(text)
        err = json.JSONDecodeError(exc.msg, exc.doc, exc.pos)
        err.pos, err.lineno, err.colno = chars, lines + 1, chars - last
        err.args = (f"{exc.msg}: line {err.lineno} column {err.colno} (char {err.pos})",)
        return err


def _read_table(fh: BinaryIO, start: int, n: int):
    """The n x n table whose JSON value starts at byte ``start`` of the
    document ``fh``, as a read-only ``TABLE_DTYPE`` array, and the byte
    offset just past its closing ``]``; None unless the value is n rows of
    n unsigned integers of 1 to ``_MAX_DIGITS`` digits without a leading
    zero, with JSON whitespace between tokens only.  Such a number is below
    10^4, which ``TABLE_DTYPE`` holds.

    The end of each row, the first n ] after ``start``, is located first,
    reading ``_BLOCK`` bytes at a time, so a table cut short returns None
    before any row is decoded.  The reader then seeks back and decodes the
    rows block by block, from the bytes it reads, straight into the one
    output array.  A block is as many rows as fit in ``_BLOCK`` bytes (one
    at least) and, at 8 bytes a separator for the intp positions of
    ``_decode_rows``, in ``_TEMP_BYTES``; it ends at the k-th ] after it
    starts, which must close its k-th row, and ``_decode_rows`` checks and
    decodes it on its own."""
    fh.seek(start)
    ends, pos = [], start
    while len(ends) < n:
        chunk = fh.read(_BLOCK)
        if not chunk:
            return None
        end = chunk.find(b"]") + 1
        while end and len(ends) < n:
            ends.append(pos + end)
            end = chunk.find(b"]", end) + 1
        pos += len(chunk)
    fh.seek(start)
    table = np.empty((n, n), dtype=TABLE_DTYPE)
    flat = table.reshape(-1)
    most = max(1, _TEMP_BYTES // (8 * (n + 2)))  # rows per block
    done, pos = 0, start
    while done < n:
        # one row, and each next one while the rows so far end within _BLOCK
        k = min(1 + bisect.bisect_left(ends, pos + _BLOCK, done) - done, most, n - done)
        end = ends[done + k - 1]
        if not _decode_rows(fh.read(end - pos), b"," if done else b"[", n,
                            flat[done * n:(done + k) * n]):
            return None
        done, pos = done + k, end
    while True:  # JSON whitespace, then the table's own ]
        rest = fh.read(_BLOCK)
        tail = rest.lstrip(_SPACES)
        if tail or not rest:
            return (_seal(table), pos + len(rest) - len(tail) + 1) if tail[:1] == b"]" else None
        pos += len(rest)


def _first_row_length(fh: BinaryIO, start: int) -> int:
    """One more than the commas between byte ``start`` of ``fh`` and the
    first ] after it: the entry count of the first row of a table that
    starts there, which ``_read_table`` then checks; 0 when there is no ]
    within ``DEFAULT_ORDER_CAP`` commas."""
    fh.seek(start)
    commas = 0
    while commas < DEFAULT_ORDER_CAP and (chunk := fh.read(_BLOCK)):
        end = chunk.find(b"]")
        if end >= 0:
            return commas + chunk.count(b",", 0, end) + 1
        commas += chunk.count(b",")
    return 0


def _read_document(fh: BinaryIO, errors: str) -> Optional[dict]:
    """The JSON object of the document ``fh`` (see ``_open``) as
    ``json.loads`` gives it, with ``add`` and ``mul`` decoded by
    ``_read_table`` where it accepts them.  The ``json`` scanner decodes
    every other member, on a window of decoded text (``_Text``) that starts
    again after each member, and a table that ``_read_table`` refuses, from
    the table's own start.  A table read before ``order`` is taken to have
    as many rows as its first row has entries (``_first_row_length``); the
    field checks of ``parse_table`` compare it with ``order`` later.  None
    for a document that ``json.loads`` must read: a table after an
    ``order`` that is not an int in [1, ``DEFAULT_ORDER_CAP``], or before
    ``order`` with a first row that is not, a member the scanner refuses
    with anything but ``json.JSONDecodeError`` (an over-long int, deep
    nesting), or anything but one object.

    ``json.JSONDecodeError`` propagates: the walk has consumed every
    character before the failing key or member as the scanner of
    ``json.loads`` does, and ``_Text.scan`` decides each step on enough
    text and places its error in the whole document, so the error is the
    one ``json.loads`` gives."""
    win = _Text(fh, errors, 0)
    idx = win.skip(0)
    if win.text[idx:idx + 1] != "{":
        return None
    idx = win.skip(idx + 1)
    doc: dict = {}
    try:
        while True:
            if win.text[idx:idx + 1] != '"':
                return None
            key, idx = win.scan(json.decoder.scanstring, idx + 1)
            idx = win.skip(idx)
            if win.text[idx:idx + 1] != ":":
                return None
            idx = win.skip(idx + 1)
            table = None
            if key in ("add", "mul"):
                start = win.offset(idx)
                n = doc["order"] if "order" in doc else _first_row_length(fh, start)
                if type(n) is not int or not 1 <= n <= DEFAULT_ORDER_CAP:
                    return None
                table = _read_table(fh, start, n)
                if table:
                    doc[key], end = table
                    win, idx = _Text(fh, errors, end), 0
                else:  # the scanner reads the table again, at least as far as the reader did
                    win, idx = _Text(fh, errors, start), 0
                    win.more(fh.tell() - start)
            if not table:
                doc[key], idx = win.scan(_DECODER.raw_decode, idx)
            idx = win.skip(idx)
            if win.text[idx:idx + 1] != ",":
                break
            win = _Text(fh, errors, win.offset(idx + 1))  # drop the text read so far
            idx = win.skip(0)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except (ValueError, RecursionError):
        return None
    if win.text[idx:idx + 1] != "}" or win.skip(idx + 1) != len(win.text):
        return None
    return doc


def parse_table(data) -> RawTables:
    """Parse a NearRing Table Format v1 document, given as a str, bytes or
    a binary file; shape checks only.

    ``_read_document`` reads the usual document in one pass, at most
    ``_BLOCK`` bytes at a time: each member but ``add`` and ``mul`` through
    the ``json`` scanner, and each table from its bytes in numpy, in blocks
    of whole rows straight into a ``TABLE_DTYPE`` array: n x n for the
    ``order`` n before it or, before ``order``, for the entry count n of
    its first row.  A malformed member gets the scanner's error from that
    member alone, the one ``json.loads`` gives, at the same line, column
    and character; a table cut short is refused before any of it is
    decoded.  Text that is not UTF-8 raises the ``UnicodeDecodeError`` of
    decoding the whole document.  A document that the walk hands back (an
    ``order`` or a first row out of range, or a member the scanner refuses
    with another error) is read whole and goes through ``json.loads``,
    which builds a Python int per entry.  Both feed the same field checks
    below, ``_check_table``, which compares each table with ``order`` and
    range-checks it as it comes, so a decoded table and a list give the
    same message, and returns it as a read-only ``TABLE_DTYPE`` array."""
    fh, errors = _open(data)
    try:
        doc = _read_document(fh, errors)
        if doc is None:
            doc = json.loads(_decoded(fh, errors))
    except UnicodeDecodeError:  # a ValueError, but raised as decoding the text raises it
        raise
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


def _put_first(t: np.ndarray, e: int) -> np.ndarray:
    """Re-index the writable table ``t`` in place so that element e comes
    first, and return it: index e becomes 0 and each index below e moves up
    one.  This is ``t[...] = new[t[old[:, None], old]]`` with old = (e, 0,
    ..., e-1, e+1, ..., n-1) and new its inverse: rows 0..e rotate down by
    one, then in each block of rows columns 0..e rotate right by one and the
    entries are relabelled.  Each move is a block at most, which is also all
    that numpy buffers for an overlapping copy."""
    n = len(t)
    step = max(1, _TEMP_BYTES // (t.itemsize * n))
    row_e = t[e].copy()
    for stop in range(e, 0, -step):  # rows 0..e-1 move down one, the last block first
        lo = max(0, stop - step)
        t[lo + 1:stop + 1] = t[lo:stop]
    t[0] = row_e
    new = np.arange(n, dtype=t.dtype)
    new[:e] += 1
    new[e] = 0
    for rows in _row_blocks(n, 8 * n):  # t[rows] is cast to intp to index new
        block = t[rows]
        col_e = block[:, e].copy()
        block[:, 1:e + 1] = block[:, :e]
        block[:, 0] = col_e
        block[...] = new.take(block)
    return t


def from_document(raw: RawTables) -> NearRing:
    """Validate parsed tables, re-indexed so that the additive identity sits
    at 0.  ``raw`` is left as it is: tables to re-index are copied first."""
    return _validated(raw, copy=True)


def _validated(raw: RawTables, copy: bool) -> NearRing:
    """``from_document``; without ``copy`` the tables are re-indexed in
    place, for a caller that holds the only reference to them."""
    add, mul, labels, one = raw.add, raw.mul, raw.labels, raw.one
    found = _first_hit(_identities(add))
    if found and found[0] != 0:
        e = found[0]
        tables = (add.copy(), mul.copy()) if copy else (add, mul)
        for t in tables:
            t.setflags(write=True)  # parse_table sealed its own fresh tables
        add, mul = (_seal(_put_first(t, e)) for t in tables)
        if labels:
            labels = (labels[e], *labels[:e], *labels[e + 1:])
        if one is not None:
            one = 0 if one == e else one + (one < e)
    return validate_nearring(add, mul, one=one, labels=labels, name=raw.name)


def load_nearring(path) -> NearRing:
    """Read and validate the table document at ``path``.  ``parse_table``
    streams it from the file, and nothing else holds the tables it returns,
    so they are re-indexed in place: the load holds the two tables and
    buffers of about ``_BLOCK`` bytes."""
    with open(path, "rb") as fh:
        raw = parse_table(fh)
    return _validated(raw, copy=False)


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
