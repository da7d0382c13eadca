"""Seeded inputs for the benchmark, built with numpy alone.

No table here comes from a ``nearrings`` construction, so the inputs stay
the same when the program changes.  A workload is a list of CLI commands;
each command names the table files it reads, and every file is a NearRing
Table Format v1 document written into the workload's input directory.

The seed only changes things that leave the amount of work alone: which
permutation relabels a table, and where a corruption lands.  The orders and
structures are fixed per workload, so runs on different seeds measure the
same work.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

TABLE_FORMAT = "nearring-table/1"


@dataclass(frozen=True)
class Table:
    name: str
    add: np.ndarray
    mul: np.ndarray
    labels: tuple[str, ...]
    one: Optional[int]

    @property
    def order(self) -> int:
        return len(self.add)


@dataclass(frozen=True)
class Command:
    """One CLI call: its argv (file names relative to the input directory)
    and the files it reads, each mapped to the table or raw text written."""

    argv: tuple[str, ...]
    files: tuple[tuple[str, object], ...] = ()


# ---------------------------------------------------------------------------
# constructions


def zn(n: int) -> Table:
    a = np.arange(n)
    return Table(f"z{n}", (a[:, None] + a) % n, (a[:, None] * a) % n,
                 tuple(str(i) for i in range(n)), 1 % n)


def product(t1: Table, t2: Table, name: str) -> Table:
    """Componentwise product; element (i, j) has index i * |t2| + j."""
    n2 = t2.order
    n = t1.order * n2

    def combine(x, y):
        return (x[:, None, :, None] * n2 + y[None, :, None, :]).reshape(n, n)

    labels = tuple(f"({a},{b})" for a in t1.labels for b in t2.labels)
    one = None if t1.one is None or t2.one is None else t1.one * n2 + t2.one
    return Table(name, combine(t1.add, t2.add), combine(t1.mul, t2.mul), labels, one)


def gf(p: int, k: int, low: tuple[int, ...]) -> Table:
    """GF(p^k) as polynomials over F_p modulo x^k + low[k-1] x^(k-1) + ... +
    low[0], which must be primitive.  The element sum c_i x^i has index
    sum c_i p^i, so the additive group (F_p)^k has k generators."""
    n = p ** k
    weights = p ** np.arange(k)
    digits = (np.arange(n)[:, None] // weights) % p
    add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
    power = np.zeros(k, dtype=np.int64)
    power[0] = 1
    exp = []                                  # exp[e] = index of x^e
    for _ in range(n - 1):
        exp.append(int(power @ weights))
        top = power[-1]
        power = np.concatenate(([0], power[:-1]))
        power = (power - top * np.array(low)) % p
    exp = np.array(exp)
    if len(set(exp.tolist())) != n - 1:
        raise ValueError("the modulus is not primitive")
    log = np.zeros(n, dtype=np.int64)
    log[exp] = np.arange(n - 1)
    mul = exp[(log[:, None] + log[None, :]) % (n - 1)]
    mul[0, :] = mul[:, 0] = 0
    return Table(f"gf{p}_{k}", add, mul, tuple(f"p{i}" for i in range(n)), 1)


def m0(n: int) -> Table:
    """Zero-fixing maps on Z_n under pointwise addition and composition.

    Element order is lexicographic on (f(1), ..., f(n-1)) and labels are
    f1, f2, ..., which matches the builtin ``m0_z3`` table for n = 3.
    """
    order = n ** (n - 1)
    weights = np.array([0] + [n ** (n - 1 - x) for x in range(1, n)])
    idx = np.arange(order)
    vals = np.zeros((order, n), dtype=np.int64)
    for x in range(1, n):
        vals[:, x] = (idx // weights[x]) % n
    add = ((vals[:, None, :] + vals[None, :, :]) % n) @ weights
    mul = vals[idx[:, None, None], vals[None, :, :]] @ weights
    one = int(np.arange(n) @ weights)
    return Table(f"m0_z{n}", add, mul, tuple(f"f{i + 1}" for i in range(order)), one)


def dihedral_projection(m: int) -> Table:
    """Dihedral group of order 2m with x*y = x for y != 0 and x*0 = 0.

    Element (e, i) = s^e r^i has index e * m + i.  The addition is not
    abelian for m >= 3, and no element is a unity.
    """
    n = 2 * m
    e, i = np.arange(n) // m, np.arange(n) % m
    sign = 1 - 2 * e
    add = (e[:, None] ^ e) * m + (i[:, None] + sign[:, None] * i) % m
    mul = np.where(np.arange(n)[None, :] != 0, np.arange(n)[:, None], 0)
    labels = tuple(("s" if ee else "") + f"r{ii}" for ee, ii in zip(e, i))
    return Table(f"d{m}_proj", add, mul, labels, None)


def _mat_bits(x):
    return (x >> 3) & 1, (x >> 2) & 1, (x >> 1) & 1, x & 1


def mat2_f2() -> Table:
    """2x2 matrices over F2; [[a,b],[c,d]] has index 8a + 4b + 2c + d, as
    in the builtin ``mat2_f2`` table."""
    x = np.arange(16)
    a, b, c, d = (v[:, None] for v in _mat_bits(x))
    e, f, g, h = (v[None, :] for v in _mat_bits(x))
    mul = (((a * e + b * g) % 2) << 3 | ((a * f + b * h) % 2) << 2
           | ((c * e + d * g) % 2) << 1 | ((c * f + d * h) % 2))
    labels = tuple("m%d%d%d%d" % tuple(int(v) for v in _mat_bits(i)) for i in range(16))
    return Table("mat2_f2", x[:, None] ^ x, mul, labels, 0b1001)


def extension_mat2_f2sq() -> Table:
    """R x M with R = 2x2 matrices over F2 acting on column vectors M = F2^2:
    <a1,m1> * <a2,m2> = <a1 a2, a1 m2 + m1>; index 4a + m (order 64).
    Unital, not zero-symmetric, not left distributive."""
    r = mat2_f2()
    v = np.arange(4)
    a, b, c, d = (t[:, None] for t in _mat_bits(np.arange(16)))
    v1, v2 = (v >> 1)[None, :], (v & 1)[None, :]
    act = ((a * v1 + b * v2) % 2) << 1 | ((c * v1 + d * v2) % 2)   # (16, 4)
    madd = v[:, None] ^ v
    n = 64
    ra, rm = np.arange(n) // 4, np.arange(n) % 4
    add = r.add[ra[:, None], ra] * 4 + madd[rm[:, None], rm]
    mul = r.mul[ra[:, None], ra] * 4 + madd[act[ra[:, None], rm], rm[:, None]]
    labels = tuple(f"({r.labels[x]}|v{(y >> 1) & 1}{y & 1})" for x in range(16) for y in range(4))
    return Table("ext_mat2f2_f2sq", add, mul, labels, 9 * 4)


def right_projection(n: int) -> Table:
    """Z_n with x*y = y: associative, but (x+y)*z = z != 2z = x*z + y*z."""
    a = np.arange(n)
    return Table(f"z{n}_rightproj", (a[:, None] + a) % n,
                 np.broadcast_to(a[None, :], (n, n)).copy(),
                 tuple(str(i) for i in range(n)), None)


# ---------------------------------------------------------------------------
# seeded perturbations


def relabel(t: Table, rng: np.random.Generator) -> Table:
    """Apply a random permutation of the elements that moves the additive
    identity off index 0, so the loader's re-indexing path runs."""
    n = t.order
    perm = rng.permutation(n)             # old index -> new index
    if perm[0] == 0:
        k = int(rng.integers(1, n))
        perm[0], perm[k] = perm[k], perm[0]
    inv = np.argsort(perm)                # new index -> old index
    return Table(t.name, perm[t.add[np.ix_(inv, inv)]], perm[t.mul[np.ix_(inv, inv)]],
                 tuple(t.labels[o] for o in inv),
                 None if t.one is None else int(perm[t.one]))


def identity_index(t: Table) -> int:
    n = t.order
    a = np.arange(n)
    return int(np.flatnonzero((t.add == a).all(axis=1) & (t.add.T == a).all(axis=1))[0])


def corrupt(t: Table, field: str, rng: np.random.Generator, name: str) -> Table:
    """Change one entry of ``add`` or ``mul`` to another value.  The entry
    avoids the identity's row and column, so the identity is still found
    at the same index and the loader's re-indexing is the one expected."""
    n, z = t.order, identity_index(t)
    while True:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if z not in (i, j):
            break
    table = getattr(t, field).copy()
    table[i, j] = (table[i, j] + int(rng.integers(1, n))) % n
    return replace(t, name=name, **{field: table})


def document(t: Table) -> str:
    doc = {"format": TABLE_FORMAT, "name": t.name, "order": t.order,
           "labels": list(t.labels), "add": t.add.tolist(), "mul": t.mul.tolist()}
    if t.one is not None:
        doc["one"] = t.one
    return json.dumps(doc, separators=(",", ":")) + "\n"


def out_of_range_document(t: Table, rng: np.random.Generator, name: str) -> str:
    """A document whose last ``mul`` row holds an index equal to the order,
    so the loader reads both tables before it finds the fault."""
    n = t.order
    mul = t.mul.copy()
    mul[n - 1, int(rng.integers(0, n))] = n
    return document(replace(t, name=name, mul=mul))


def truncated_document(t: Table, rng: np.random.Generator) -> str:
    """A document cut off between 60% and 90% of its length."""
    text = document(t)
    return text[: int(len(text) * rng.uniform(0.6, 0.9))]


# ---------------------------------------------------------------------------
# workloads


def _suite_small(rng) -> list[Command]:
    # Builtin element order is kept for the two tables that must equal a
    # builtin (ex20_claim and ex_gggg_claim test for exactly those tables).
    keep = [replace(m0(3), name="m0_z3_copy"), replace(mat2_f2(), name="mat2_f2_copy")]
    moved = [zn(12), zn(27), zn(30), product(zn(2), zn(8), "z2xz8"),
             product(zn(4), zn(4), "z4xz4"), product(zn(3), zn(9), "z3xz9"),
             product(zn(2), zn(16), "z2xz16"), m0(4), dihedral_projection(4),
             dihedral_projection(8), dihedral_projection(16)]
    tables = keep + [relabel(t, rng) for t in moved]
    files = tuple((f"t{i:02d}_{t.name}.json", t) for i, t in enumerate(tables))
    return [Command(("verify", "--format", "json")),
            Command(("verify", "--format", "json", "."), files)]


def _classify_mid(rng) -> list[Command]:
    cmds = [Command(("classify", f"{t.name}.json", "--format", "json"),
                    ((f"{t.name}.json", relabel(t, rng)),))
            for t in (gf(3, 4, (2, 1, 0, 0)), product(zn(4), zn(24), "z4xz24"))]
    members = [relabel(t, rng)
               for t in (m0(4), product(zn(2), zn(48), "z2xz48"), dihedral_projection(48))]
    files = tuple((f"corpus/c{i}_{t.name}.json", t) for i, t in enumerate(members))
    cmds.append(Command(("corpus", "corpus", "--format", "json"), files))
    return cmds


def _validate_large(rng) -> list[Command]:
    tables = [product(zn(8), zn(32), "z8xz32"), product(m0(4), zn(4), "m0z4xz4"),
              gf(2, 8, (1, 0, 1, 1, 1, 0, 0, 0)), dihedral_projection(128)]
    return [Command(("validate", f"{t.name}.json"), ((f"{t.name}.json", relabel(t, rng)),))
            for t in tables]


def _validate_invalid(rng) -> list[Command]:
    base = relabel(product(zn(16), zn(24), "z16xz24"), rng)
    files: list[tuple[str, object]] = [
        ("bad_add.json", corrupt(base, "add", rng, "z16xz24_bad_add")),
        ("bad_mul.json", corrupt(base, "mul", rng, "z16xz24_bad_mul")),
        ("bad_rightdist.json", relabel(right_projection(384), rng)),
        ("bad_range.json", out_of_range_document(base, rng, "z16xz24_bad_range")),
        ("bad_json.json", truncated_document(base, rng)),
    ]
    return [Command(("validate", f), ((f, obj),)) for f, obj in files]


WORKLOADS = {
    "suite_small": _suite_small,
    "classify_mid": _classify_mid,
    "validate_large": _validate_large,
    "validate_invalid": _validate_invalid,
}


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands for ``seed``; the same seed gives the same
    tables, byte for byte."""
    return WORKLOADS[workload](np.random.default_rng(seed))
