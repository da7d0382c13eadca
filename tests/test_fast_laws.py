"""The generator-reduced law checks against the exhaustive scans.

The exhaustive scans below (``reference_assoc_witness``,
``reference_right_dist_witness``, ``reference_left_dist_witness``) are the
oracle: validation must return the same verdict and the same first witness
as running them in validation order.  The associativity scan over the first
of each set of equal rows must agree with ``reference_assoc_witness`` on its
own as well, ``_holds`` over a generating set with the exhaustive scans,
and the rows of ``_left_dist`` that fail over generators with the rows that
fail.  Every reference test runs a second time with the scans in one-row
blocks (``core._TEMP_BYTES`` patched to one byte).

The flat gathers of ``_additive``, ``_left_dist`` and ``_extend_closure``
(``t.reshape(-1).take(a * n + b)``) are compared with the 2-D fancy
indexing ``t[a, b]`` they replace, kept below as references, on int16
tables of orders up to 256, where an index built in int16 would wrap.
"""
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearrings import AxiomViolation, builtin, core, emit_table, validate_nearring
from nearrings.core import (
    _additive,
    _as_table,
    _assoc,
    _extend_closure,
    _first_hit,
    _first_rows,
    _first_violation,
    _first_witness,
    _generators,
    _holds,
    _identities,
    _law,
    _left_dist,
    _row_blocks,
    _row_classes,
)

BUILTINS = ("klein4_ring", "zn_ring(6)", "zn_ring(9)", "m0_z3", "mat2_f2",
            "klein4_x_f2", "ext_f2_f2")


def reference_assoc_witness(t):
    """First (i,j,k) with (i.j).k != i.(j.k), scanning i ascending."""
    n = len(t)
    for i in range(n):
        lhs = t[t[i], :]          # (j,k) -> (i.j).k
        rhs = t[i, t]             # (j,k) -> i.(j.k)
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            j, k = bad[0]
            return (i, int(j), int(k))
    return None


def reference_right_dist_witness(add, mul):
    """First (i,j,k) with (i+j)*k != i*k + j*k."""
    n = len(add)
    for i in range(n):
        lhs = mul[add[i], :]                    # (j,k) -> (i+j)*k
        rhs = add[mul[i][None, :], mul]         # (j,k) -> add[i*k, j*k]
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            j, k = bad[0]
            return (i, int(j), int(k))
    return None


def reference_left_dist_witness(add, mul, start=0):
    """First (i,j,k) with i*(j+k) != i*j + i*k, scanning rows from ``start``."""
    n = len(add)
    for i in range(start, n):
        lhs = mul[i, add]                        # (j,k) -> i*(j+k)
        rhs = add[mul[i][:, None], mul[i][None, :]]
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            j, k = bad[0]
            return (i, int(j), int(k))
    return None


def reference_outcome(add, mul):
    """Seed-order exhaustive validation: the first failing law and its
    witness, or ("ok", first left-distributivity witness or None)."""
    a, m = np.array(add), np.array(mul)
    n = len(a)
    for j in range(n):
        if a[0][j] != j or a[j][0] != j:
            return ("add_identity", (j,))
    w = reference_assoc_witness(a)
    if w is not None:
        return ("add_assoc", w)
    for i in range(n):
        if not any(a[i][j] == 0 and a[j][i] == 0 for j in range(n)):
            return ("add_inverse", (i,))
    w = reference_assoc_witness(m)
    if w is not None:
        return ("mul_assoc", w)
    w = reference_right_dist_witness(a, m)
    if w is not None:
        return ("right_dist", w)
    return ("ok", reference_left_dist_witness(a, m))


def fast_outcome(add, mul):
    try:
        ring = validate_nearring(add, mul)
    except AxiomViolation as exc:
        return (exc.law, exc.witness)
    return ("ok", dict(ring.flag_witnesses).get("left_distributive"))


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product(a, b):
    """Row-major direct product of two addition tables."""
    na, nb = len(a), len(b)
    return [[a[x // nb][y // nb] * nb + b[x % nb][y % nb]
             for y in range(na * nb)] for x in range(na * nb)]


def dihedral(k):
    """D_k of order 2k; index i + k*j stands for r^i s^j."""
    def op(x, y):
        (i1, j1), (i2, j2) = divmod(x, k)[::-1], divmod(y, k)[::-1]
        return (i1 + (i2 if j1 == 0 else -i2)) % k + k * (j1 ^ j2)
    return [[op(x, y) for y in range(2 * k)] for x in range(2 * k)]


groups = st.one_of(
    st.integers(1, 16).map(cyclic),
    st.tuples(st.integers(2, 4), st.integers(2, 6)).map(
        lambda ab: product(cyclic(ab[0]), cyclic(ab[1]))),
    st.integers(3, 8).map(dihedral),
)


def projection(add):
    """x*y = x for y != 0, x*0 = 0: a zero-symmetric near-ring on any group."""
    n = len(add)
    return [[x if y else 0 for y in range(n)] for x in range(n)]


def right_projection(add):
    """x*y = y: associative, right distributive only on the trivial group."""
    n = len(add)
    return [list(range(n)) for _ in range(n)]


@st.composite
def corrupt(draw, table, max_hits=3, first=1):
    """Overwrite 1 to ``max_hits`` entries in rows and columns from
    ``first`` on: by default off row 0 and column 0."""
    n = len(table)
    table = [row[:] for row in table]
    if n <= first:
        return table
    for _ in range(draw(st.integers(1, max_hits))):
        i, j = draw(st.integers(first, n - 1)), draw(st.integers(first, n - 1))
        table[i][j] = draw(st.integers(0, n - 1))
    return table


def assert_agrees(add, mul):
    assert fast_outcome(add, mul) == reference_outcome(add, mul)


@given(name=st.sampled_from(BUILTINS), which=st.sampled_from(("add", "mul")),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_corrupted_builtins(name, which, data):
    doc = json.loads(emit_table(builtin(name)))
    doc[which] = data.draw(corrupt(doc[which]))
    assert_agrees(doc["add"], doc["mul"])


@given(k=st.integers(3, 8), data=st.data())
@settings(max_examples=150, deadline=None)
def test_dihedral_projection(k, data):
    add = dihedral(k)
    mul = projection(add)
    assert fast_outcome(add, mul)[0] == "ok"
    if data.draw(st.booleans()):
        mul = data.draw(corrupt(mul))
    assert_agrees(add, mul)


@given(add=groups)
@settings(max_examples=100, deadline=None)
def test_right_projection_fails_only_right_distributivity(add):
    mul = right_projection(add)
    outcome = fast_outcome(add, mul)
    assert outcome == reference_outcome(add, mul)
    assert outcome[0] == ("ok" if len(add) == 1 else "right_dist")


@given(add=groups, data=st.data())
@settings(max_examples=200, deadline=None)
def test_non_associative_addition(add, data):
    add = data.draw(corrupt(add))
    assert_agrees(add, projection(add))
    a = np.array(add)
    assert _holds(_assoc(a, a), _generators(a)) == (reference_assoc_witness(a) is None)


@given(n=st.integers(2, 16), data=st.data())
@settings(max_examples=200, deadline=None)
def test_column_endomorphisms_on_cyclic_groups(n, data):
    # x*z = c_z x is right distributive for any c, associative only for some
    c = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    add, mul = cyclic(n), column_endomorphisms(n, c)
    a, m = np.array(add), np.array(mul)
    gens = _generators(a)
    assert _holds(_additive(a, m, a), gens)
    assert _holds(_assoc(m, m), gens) == (reference_assoc_witness(m) is None)
    assert_agrees(add, mul)


@given(add=groups, data=st.data())
@settings(max_examples=200, deadline=None)
def test_reduced_predicates_on_arbitrary_products(add, data):
    n = len(add)
    mul = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    a, m = np.array(add), np.array(mul)
    gens = _generators(a)
    assert _holds(_additive(a, m, a), gens) == (reference_right_dist_witness(a, m) is None)
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))  # any rows, any order
    bad = _left_dist(a, m)(np.array(rows, dtype=np.intp), gens).any(axis=(1, 2))
    assert len(bad) == len(rows)
    for x, x_bad in zip(rows, bad):
        row_ok = np.array_equal(m[x][a], a[m[x][:, None], m[x][None, :]])
        assert bool(x_bad) != row_ok
    assert_agrees(add, mul)


def ring_mul(n):
    return [[i * j % n for j in range(n)] for i in range(n)]


@st.composite
def zero_bordered(draw, n):
    """A random n x n table whose row 0 and column 0 are 0."""
    return [[draw(st.integers(0, n - 1)) if i and j else 0 for j in range(n)]
            for i in range(n)]


def column_endomorphisms(n, c):
    """x*z = c_z x on Z_n: right distributive for any c."""
    return [[c[z] * x % n for z in range(n)] for x in range(n)]


@given(a=st.integers(2, 5), b=st.integers(2, 4), broken_add=st.booleans(),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_failures_only_later_generators_see(a, b, broken_add, data):
    # On A x Z_b the first greedy generator is (0, 1), and every reduced
    # check passes on it; whatever fails lies in the A factor, which only
    # the later generators reach.
    add_a = data.draw(corrupt(cyclic(a))) if broken_add else cyclic(a)
    mul_a = data.draw(st.one_of(
        zero_bordered(a),
        st.lists(st.integers(0, a - 1), min_size=a, max_size=a).map(
            lambda c: column_endomorphisms(a, c))))
    add, mul = product(add_a, cyclic(b)), product(mul_a, ring_mul(b))
    ad, m = np.array(add), np.array(mul)
    gens = _generators(ad)
    assert gens[0] == 1 and len(gens) > 1
    assert _holds(_assoc(ad, ad), gens) == (reference_assoc_witness(ad) is None)
    if not broken_add:
        rd = _holds(_additive(ad, m, ad), gens)
        assert rd == (reference_right_dist_witness(ad, m) is None)
        if rd:
            assert _holds(_assoc(m, m), gens) == (reference_assoc_witness(m) is None)
        bad = _left_dist(ad, m)(np.arange(len(add)), gens).any(axis=(1, 2))
        for x in range(len(add)):
            assert bool(bad[x]) != np.array_equal(m[x][ad], ad[m[x][:, None], m[x][None, :]])
    assert_agrees(add, mul)


def closure(add, seeds):
    reached = {0} | set(seeds)
    while True:
        new = {add[x][y] for x in reached for y in reached} - reached
        if not new:
            return reached
        reached |= new


@given(add=st.one_of(groups, groups.flatmap(corrupt)))
@settings(max_examples=200, deadline=None)
def test_greedy_generators_generate(add):
    gens = _generators(np.array(add))
    assert gens == sorted(gens)
    assert closure(add, gens) == set(range(len(add)))
    for k, s in enumerate(gens):
        assert s not in closure(add, gens[:k])


# ---------------------------------------------------------------------------
# the associativity scan over distinct rows


def left_projection(n):
    """x*y = x: every row differs, so no row is skipped."""
    return [[x] * n for x in range(n)]


@st.composite
def few_distinct_rows(draw):
    """An n x n table with few distinct rows: x*y = y (one row), x*y = x,
    a constant table, or k random rows spread over the n positions."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(("right", "left", "constant", "spread")))
    if kind == "right":
        return right_projection(cyclic(n))
    if kind == "left":
        return left_projection(n)
    if kind == "constant":
        return [[draw(st.integers(0, n - 1))] * n for _ in range(n)]
    k = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return [rows[draw(st.integers(0, k - 1))][:] for _ in range(n)]


def hit(table):
    """1 to 3 corrupted entries anywhere, row 0 and column 0 included."""
    return corrupt(table, first=0)


@st.composite
def relabelled_projection(draw):
    """The projection ring on a random group under a random relabelling."""
    add = draw(groups)
    p = np.array(draw(st.permutations(range(len(add)))))
    out = np.empty((len(add), len(add)), dtype=np.int64)
    out[p[:, None], p] = p[np.array(projection(add))]
    return out.tolist()


@given(table=few_distinct_rows())
@settings(max_examples=200, deadline=None)
def test_row_classes_name_the_first_equal_row(table):
    t = np.array(table)
    assert _row_classes(t).tolist() == [table.index(row) for row in table]


@given(table=st.one_of(few_distinct_rows(), few_distinct_rows().flatmap(hit),
                       relabelled_projection(), relabelled_projection().flatmap(hit)))
@settings(max_examples=600, deadline=None)
def test_row_class_scan_matches_the_exhaustive_scan(table):
    t = np.array(table)
    assert _first_violation(_assoc(t, t), _first_rows(t)) == reference_assoc_witness(t)


@given(add=st.one_of(st.integers(1, 64).map(cyclic),
                     st.tuples(st.integers(2, 4), st.integers(2, 16)).map(
                         lambda ab: product(cyclic(ab[0]), cyclic(ab[1])))),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_right_projection_outcomes_up_to_order_64(add, data):
    mul = right_projection(add)
    if data.draw(st.booleans()):
        mul = data.draw(hit(mul))
    assert_agrees(add, mul)


def reference_flag_witnesses(add, mul):
    """The first witness of each failing flag, by exhaustive loops."""
    n = len(add)
    asymmetry = lambda t: next(((i, j) for i in range(n) for j in range(n)
                                if t[i][j] != t[j][i]), None)
    witnesses = {"left_distributive": reference_left_dist_witness(np.array(add), np.array(mul)),
                 "abelian_add": asymmetry(add),
                 "zero_symmetric": next(((x,) for x in range(n) if mul[x][0]), None),
                 "commutative_mul": asymmetry(mul)}
    return {flag: w for flag, w in witnesses.items() if w is not None}


@st.composite
def relabelled_near_rings(draw):
    """A near-ring that validates: a projection ring, or x*y = c_y x on Z_n,
    with the non-zero elements relabelled so that witnesses move."""
    if draw(st.booleans()):
        add = draw(groups)
        mul = projection(add)
    else:
        n = draw(st.integers(2, 12))
        add, mul = cyclic(n), ring_mul(n)
    n = len(add)
    p = np.array([0] + draw(st.permutations(range(1, n))))
    a, m = (np.empty((n, n), dtype=np.int64) for _ in range(2))
    a[p[:, None], p] = p[np.array(add)]
    m[p[:, None], p] = p[np.array(mul)]
    return a.tolist(), m.tolist()


@given(tables=relabelled_near_rings())
@settings(max_examples=200, deadline=None)
def test_flag_witnesses_match_the_exhaustive_scans(tables):
    add, mul = tables
    ring = validate_nearring(add, mul)
    assert dict(ring.flag_witnesses) == reference_flag_witnesses(add, mul)


@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), e=st.integers(0, 11),
       sides=st.sampled_from(("left", "right", "both")))
@settings(max_examples=200, deadline=None)
def test_identities_are_two_sided(n, seed, e, sides):
    # Plant a left identity (row e is 0..n-1), a right one (column e is),
    # or both: only the last is reported.
    t = np.random.default_rng(seed).integers(0, n, (n, n))
    if sides != "right":
        t[e % n] = np.arange(n)
    if sides != "left":
        t[:, e % n] = np.arange(n)
    expected = [all(t[e][x] == x and t[x][e] == x for x in range(n)) for e in range(n)]
    assert _identities(t).tolist() == expected


# ---------------------------------------------------------------------------
# the same references with every row scan, the left-distributivity rows, the
# inverse table and the row classes computed one row per block


@pytest.mark.parametrize("test", [
    test_corrupted_builtins, test_dihedral_projection,
    test_right_projection_fails_only_right_distributivity, test_non_associative_addition,
    test_column_endomorphisms_on_cyclic_groups, test_reduced_predicates_on_arbitrary_products,
    test_failures_only_later_generators_see, test_greedy_generators_generate,
    test_row_classes_name_the_first_equal_row, test_row_class_scan_matches_the_exhaustive_scan,
    test_right_projection_outcomes_up_to_order_64, test_flag_witnesses_match_the_exhaustive_scans,
    test_identities_are_two_sided,
], ids=lambda test: test.__name__)
def test_references_in_one_row_blocks(test):
    with mock.patch.object(core, "_TEMP_BYTES", 1):
        test()


# ---------------------------------------------------------------------------
# the flat gathers, t.reshape(-1).take(a * n + b), against the 2-D fancy
# indexing t[a, b] that they replace, kept here as the references


def reference_additive(radd, act, madd):
    return lambda r, s, out: np.not_equal(
        act.take(radd[r, s], axis=0), madd[act[r].astype(np.intp), act[s].astype(np.intp)],
        out=out)


def reference_left_dist(add, mul):
    return lambda xs, ys: (mul[xs[:, None, None], add[ys]]
                           != add[mul[xs[:, None], ys][:, :, None], mul[xs][:, None, :]])


def whole_table(fill, shape, r):
    """The bool table of row r that a ``_law`` fill writes, over all rows at once."""
    out = np.empty(shape, dtype=bool)
    fill(r, slice(0, shape[0]), out)
    return out


def reference_extend_closure(add, reached, s):
    reached[s] = True
    frontier = np.array([s])
    while len(frontier):
        members = reached.nonzero()[0]
        new = np.zeros(len(add), dtype=bool)
        for rows in _row_blocks(len(frontier), 8 * len(members)):
            new[add[frontier[rows, None], members].astype(np.intp, copy=False)] = True
            new[add[members[:, None], frontier[rows]].astype(np.intp, copy=False)] = True
        new[members] = False
        reached |= new
        frontier = new.nonzero()[0]


def boolean_tables(k):
    """The Boolean ring on 2^k elements: + is xor, * is and."""
    x = np.arange(2 ** k)
    return x[:, None] ^ x, x[:, None] & x


# Orders from 182 on: an index a * n + b built in int16 wraps there.
FLAT_FAMILIES = {
    "Z12": lambda: (cyclic(12), ring_mul(12)),
    "Z182": lambda: (cyclic(182), ring_mul(182)),
    "Z256": lambda: (cyclic(256), ring_mul(256)),
    "Z16xZ16": lambda: (product(cyclic(16), cyclic(16)), product(ring_mul(16), ring_mul(16))),
    "Z2^8": lambda: boolean_tables(8),
    "D128 projection": lambda: (dihedral(128), projection(dihedral(128))),
}


@pytest.mark.parametrize("corrupted", [False, True], ids=["relabelled", "corrupted"])
@pytest.mark.parametrize("family", FLAT_FAMILIES)
def test_flat_gathers_match_the_fancy_index(family, corrupted):
    rng = np.random.default_rng(25)
    add, mul = (np.array(t) for t in FLAT_FAMILIES[family]())
    n = len(add)
    p = rng.permutation(n)
    tables = []
    for t in (add, mul):
        out = np.empty((n, n), dtype=np.int64)
        out[p[:, None], p] = p[t]
        if corrupted:
            out[rng.integers(0, n, 3), rng.integers(0, n, 3)] = rng.integers(0, n, 3)
        tables.append(_as_table(out))  # int16, as a loaded table is
    add, mul = tables
    m = n // 2 + 1  # an action on a group of another order
    act, madd = _as_table(rng.integers(0, m, (n, m))), _as_table(cyclic(m))
    rows = sorted({0, n - 1, *rng.choice(n, min(n, 16), replace=False).tolist()})
    for make, ref in ((lambda: _additive(add, mul, add), reference_additive(add, mul, add)),
                      (lambda: _additive(add, act, madd), reference_additive(add, act, madd))):
        with mock.patch.object(core, "_law", lambda fill, shape: (fill, shape)):
            fill, shape = make()  # the row function's own fill, unwrapped
        first = make()
        for r in rows:
            expected = whole_table(ref, shape, r)
            assert np.array_equal(whole_table(fill, shape, r), expected), r
            assert first(r) == _first_hit(expected), r
    xs, everything = np.array(rows), np.arange(n)
    expected = reference_left_dist(add, mul)(xs, everything)
    assert np.array_equal(_left_dist(add, mul)(xs, everything), expected)
    for i, r in enumerate(rows):
        hit = _first_hit(expected[i])
        assert _first_witness(_left_dist(add, mul), xs[i:i + 1], everything, everything, n) \
            == (hit and (r, *hit)), r
    for t in (add, add.astype(np.intp)):  # a table, and the intp copy that closures index
        got, expected = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        got[0] = expected[0] = True
        for s in rng.integers(0, n, 3).tolist():
            _extend_closure(t, got, s)
            reference_extend_closure(t, expected, s)
            assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# _holds and _first_violation decide each row a block at a time, without the
# n x n table


def test_holds_stops_at_the_first_block_with_a_failure():
    n, filled = 64, []

    def fill(r, rows, out):
        filled.append((r, rows.start))
        out[...] = r == 1 and rows.start == 8

    with mock.patch.object(core, "_TEMP_BYTES", 8 * n * 8):  # blocks of 8 rows
        bad = _law(fill, (n, n))
        assert not _holds(bad, [1, 2])
    assert filled == [(1, 0), (1, 8)]
    filled.clear()
    assert _first_violation(bad, [0, 1, 2]) == (1, 8, 0)
    assert filled == [(0, lo) for lo in range(0, n, 8)] + [(1, 0), (1, 8)]


def test_holds_allocates_no_n_by_n_table():
    n = 1024
    x = np.arange(n)
    add, mul = (_as_table(t % n) for t in (np.add.outer(x, x), np.multiply.outer(x, x)))
    gens = np.array(_generators(add))
    broken = mul.copy()
    broken[20, 700] += 1  # then two witnesses lie past the first block (8 rows) of s
    scans = [(lambda: _holds(_additive(add, mul, add), gens), True, True),
             (lambda: _holds(_assoc(mul, mul), gens), True, False),
             (lambda: _first_witness(_left_dist(add, mul), gens, gens, x, n), None, False),
             (lambda: _first_violation(_additive(add, broken, add), range(n)),
              reference_right_dist_witness(add, broken), True),
             (lambda: _first_violation(_assoc(broken, broken), _first_rows(broken)),
              reference_assoc_witness(broken), False),
             (lambda: _first_witness(_left_dist(add, broken), x, gens, x, n),
              reference_left_dist_witness(add, broken), False)]
    for scan, expected, additive in scans:
        tracemalloc.start()
        try:
            assert scan() == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n // 2, peak
        if additive:  # one intp block: the flat index, built in place
            assert peak < 3 * core._TEMP_BYTES, peak
