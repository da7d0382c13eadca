"""Expected results, recomputed in numpy from the generated tables alone.

``expect`` derives what a correct program must print for one command;
``check`` compares a command's exit code and output with it.  Nothing here
calls ``nearrings``: laws, flags, element profiles and morphic witnesses are
recomputed from the definitions, on the tables as the loader re-indexes
them (the additive identity moves to index 0, the other elements keep their
relative order).
"""
from __future__ import annotations

import json
from pathlib import PurePosixPath
from typing import Optional

import numpy as np

from gen import Command, Table, identity_index

THEOREM_COUNT = 22
BUILTIN_CORPUS_SIZE = 9
# Ideal enumeration, and with it the ``left_duo`` field, stops above this order.
IDEAL_ENUM_ORDER_CAP = 64


def canonical(t: Table) -> Table:
    """The table as loaded: identity first, the rest in document order."""
    ident = identity_index(t)
    order = np.array([ident] + [i for i in range(t.order) if i != ident])
    pi = np.argsort(order)
    ix = np.ix_(order, order)
    return Table(t.name, pi[t.add[ix]], pi[t.mul[ix]], tuple(t.labels[o] for o in order),
                 None if t.one is None else int(pi[t.one]))


# ---------------------------------------------------------------------------
# laws: the least witness, in lexicographic order, of each failing law


def _first_violation(n: int, lhs, rhs) -> Optional[tuple[int, int, int]]:
    """Least (i, j, k) with lhs(rows)[i, j, k] != rhs(rows)[i, j, k], scanning
    blocks of i so memory stays near two million entries."""
    block = max(1, 2_000_000 // (n * n))
    for start in range(0, n, block):
        rows = np.arange(start, min(n, start + block))
        diff = lhs(rows) != rhs(rows)
        if diff.any():
            i, j, k = np.argwhere(diff)[0]
            return int(rows[i]), int(j), int(k)
    return None


def _assoc(t: np.ndarray):
    return _first_violation(len(t), lambda r: t[t[r]], lambda r: t[r[:, None, None], t[None]])


def _right_dist(add: np.ndarray, mul: np.ndarray):
    return _first_violation(len(add), lambda r: mul[add[r]],
                            lambda r: add[mul[r][:, None, :], mul[None]])


def _left_dist(add: np.ndarray, mul: np.ndarray):
    return _first_violation(len(add), lambda r: mul[r[:, None, None], add[None]],
                            lambda r: add[mul[r][:, :, None], mul[r][:, None, :]])


def validation_failure(t: Table) -> Optional[tuple[str, tuple[int, ...]]]:
    """First failing law in the loader's order, with its least witness."""
    add, mul, n = t.add, t.mul, t.order
    a = np.arange(n)
    bad = np.flatnonzero((add[0] != a) | (add[:, 0] != a))
    if bad.size:
        return "add_identity", (int(bad[0]),)
    w = _assoc(add)
    if w:
        return "add_assoc", w
    bad = np.flatnonzero(~((add == 0) & (add.T == 0)).any(axis=1))
    if bad.size:
        return "add_inverse", (int(bad[0]),)
    w = _assoc(mul)
    if w:
        return "mul_assoc", w
    w = _right_dist(add, mul)
    if w:
        return "right_dist", w
    if t.one is not None:
        bad = np.flatnonzero((mul[t.one] != a) | (mul[:, t.one] != a))
        if bad.size:
            return "unity", (t.one, int(bad[0]))
    return None


def unity(t: Table) -> Optional[int]:
    a = np.arange(t.order)
    hits = np.flatnonzero((t.mul == a).all(axis=1) & (t.mul.T == a).all(axis=1))
    return int(hits[0]) if hits.size else None


def flag_tokens(t: Table) -> list[str]:
    left_dist = _left_dist(t.add, t.mul) is None
    abelian = bool((t.add == t.add.T).all())
    tokens = ["right_distributive"]
    for name, value in [("left_distributive", left_dist),
                        ("abelian_add", abelian),
                        ("zero_symmetric", bool((t.mul[:, 0] == 0).all())),
                        ("unital", unity(t) is not None),
                        ("commutative_mul", bool((t.mul == t.mul.T).all()))]:
        if value:
            tokens.append(name)
    if abelian and left_dist:
        tokens.append("ring")
    return tokens


def validate_output(t: Table) -> str:
    lines = [f"name: {t.name}", f"order: {t.order}", f"flags: {' '.join(flag_tokens(t))}"]
    one = unity(t)
    if one is not None:
        lines.append(f"one: {t.labels[one]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# element and structure profiles


def _is_n_ideal(t: Table, neg: np.ndarray, in_l: np.ndarray) -> bool:
    """Subgroup, normal, and r(l + m) - rm in L for all r, l, m."""
    add, mul = t.add, t.mul
    members = np.flatnonzero(in_l)
    if not in_l[0] or not in_l[add[np.ix_(members, members)]].all():
        return False
    if not in_l[add[add[:, members], neg[:, None]]].all():
        return False
    val = add[mul[:, add[members, :]], neg[mul][:, None, :]]   # (r, l, m)
    return bool(in_l[val].all())


def profiles(t: Table) -> dict:
    """Per-element columns and the structure fields, as numpy arrays."""
    n, mul = t.order, t.mul
    a = np.arange(n)
    one = unity(t)
    unital = one is not None
    diag = mul[a, a]

    nil = np.zeros(n, dtype=np.int64)
    power = a.copy()
    for k in range(1, n + 1):
        nil[(power == 0) & (nil == 0)] = k
        power = mul[power, a]
    inner = mul[mul, a[:, None]] == a[:, None]           # [a, x]: a x a == a
    is_unit = ((mul == one) & (mul.T == one)).any(axis=1) if unital else np.zeros(n, bool)

    na = np.zeros((n, n), dtype=bool)                    # [a, v]: v in Na
    na[np.broadcast_to(a[None, :], (n, n)), mul] = True
    an = np.zeros((n, n), dtype=bool)                    # [a, v]: v in aN
    an[np.broadcast_to(a[:, None], (n, n)), mul] = True
    ann = (mul == 0).T                                   # [a, x]: x in (0:a)

    status: list[Optional[str]] = [None] * n
    witness: list[Optional[int]] = [None] * n
    if unital:
        neg = np.argmax(t.add == 0, axis=1)
        ideal = {}
        for x in range(n):
            key = na[x].tobytes()
            if key not in ideal:
                ideal[key] = _is_n_ideal(t, neg, na[x])
            if not ideal[key]:
                status[x] = "na_not_ideal"
                continue
            hits = np.flatnonzero((ann == na[x]).all(axis=1) & (na == ann[x]).all(axis=1))
            status[x] = "morphic" if hits.size else "no_witness"
            witness[x] = int(hits[0]) if hits.size else None

    ifp = all(not ((mul[x] == 0) & ~(mul[mul[x]] == 0).all(axis=0)).any() for x in range(n))
    return {
        "unital": unital, "is_unit": is_unit, "idempotent": diag == a,
        "central": (mul == mul.T).all(axis=1), "nilpotency": nil,
        "regular": inner.any(axis=1),
        "unit_regular": (inner & is_unit[None, :]).any(axis=1),
        "lsr": (mul[:, diag] == a[None, :]).any(axis=0),
        "rsr": (mul[diag] == a[:, None]).any(axis=1),
        "na_size": na.sum(axis=1), "ann_size": ann.sum(axis=1),
        "status": status, "witness": witness,
        "has_ifp": ifp,
        "subcommutative": bool((na == an).all()),
        "weakly_divisible": bool((na | na.T).all()),
    }


def _structure(t: Table, p: dict, flags: list[str]) -> dict:
    n, unital = t.order, p["unital"]
    morphic = [s == "morphic" for s in p["status"]]
    regular = bool(p["regular"].all())
    structure = {
        "zero_symmetric": "zero_symmetric" in flags,
        "abelian_add": "abelian_add" in flags,
        "is_ring": "ring" in flags,
        "is_near_field": bool(unital and n > 1 and p["is_unit"][1:].all()),
        "reduced": not (p["nilpotency"][1:] > 0).any(),
        "has_ifp": p["has_ifp"],
        "subcommutative": p["subcommutative"],
        "boolean": bool(p["idempotent"].all()),
        "weakly_divisible": p["weakly_divisible"],
        "idempotents_central": bool((~p["idempotent"] | p["central"]).all()),
        "regular": regular,
        "unit_regular": bool(p["unit_regular"].all()) if unital else None,
        "left_strongly_regular": bool(p["lsr"].all()),
        "right_strongly_regular": bool(p["rsr"].all()),
        "left_morphic": all(morphic) if unital else None,
        "generalised_near_field": regular and p["subcommutative"],
    }
    if n > IDEAL_ENUM_ORDER_CAP:
        structure["left_duo"] = None
    return structure


def verdict(s: dict) -> str:
    if s["left_strongly_regular"]:
        return "left strongly regular"
    if s["left_morphic"] and s["regular"]:
        return "left morphic regular"
    if s["unit_regular"]:
        return "unit-regular but not left morphic"
    if s["regular"]:
        return "regular"
    return "not regular"


def _yn(v) -> str:
    return "n/a" if v is None else ("yes" if v else "no")


def classify_doc(t: Table) -> dict:
    p = profiles(t)
    flags = flag_tokens(t)
    structure = _structure(t, p, flags)
    unital = p["unital"]
    elements = []
    for x in range(t.order):
        status, w = p["status"][x], p["witness"][x]
        morphic = "n/a" if status is None else ("yes" if status == "morphic" else f"no({status})")
        elements.append({
            "index": str(x), "label": t.labels[x],
            "unit": _yn(bool(p["is_unit"][x]) if unital else None),
            "idempotent": _yn(p["idempotent"][x]), "central": _yn(p["central"][x]),
            "nilpotency": str(int(p["nilpotency"][x])),
            "regular": _yn(p["regular"][x]),
            "unit_regular": _yn(bool(p["unit_regular"][x]) if unital else None),
            "lsr": _yn(p["lsr"][x]), "rsr": _yn(p["rsr"][x]),
            "morphic": morphic, "witness": "" if w is None else t.labels[w],
            "|Na|": str(int(p["na_size"][x])), "|annL|": str(int(p["ann_size"][x])),
        })
    return {"name": t.name, "order": t.order, "flags": flags, "structure": structure,
            "verdict": verdict(structure), "elements": elements}


def _corpus_row(fname: str, t: Table) -> dict:
    doc = classify_doc(t)

    def count(col: str) -> int:
        return sum(1 for e in doc["elements"] if e[col] == "yes")

    return {"file": fname, "name": t.name, "order": t.order, "verdict": doc["verdict"],
            "units": count("unit"), "idempotents": count("idempotent"),
            "regular": count("regular"), "unit_regular": count("unit_regular"),
            "left_morphic": count("morphic")}


def _chain(tables: list[Table]) -> dict:
    chain = {"left_strongly_regular": [], "left_morphic_regular": [], "unit_regular": []}
    for t in tables:
        s = classify_doc(t)["structure"]
        if s["left_strongly_regular"]:
            chain["left_strongly_regular"].append(t.name)
        if s["left_morphic"] and s["regular"]:
            chain["left_morphic_regular"].append(t.name)
        if s["unit_regular"]:
            chain["unit_regular"].append(t.name)
    return chain


# ---------------------------------------------------------------------------


def expect(cmd: Command) -> dict:
    """What a correct program does on ``cmd``, as a JSON-ready dict."""
    verb = cmd.argv[0]
    files = [(PurePosixPath(f).name, obj if isinstance(obj, str) else canonical(obj))
             for f, obj in cmd.files]
    if verb == "validate":
        t = files[0][1]
        if isinstance(t, str):
            return {"kind": "prefix", "exit": 3, "text": f"{cmd.argv[1]}: format error: "}
        failure = validation_failure(t)
        if failure:
            law, w = failure
            return {"kind": "exact", "exit": 1,
                    "text": f"{cmd.argv[1]}: axiom violation: {law} witness {w}\n"}
        return {"kind": "exact", "exit": 0, "text": validate_output(t)}
    if verb == "classify":
        return {"kind": "classify", "exit": 0, "doc": classify_doc(files[0][1])}
    if verb == "corpus":
        return {"kind": "corpus", "exit": 0,
                "rows": [_corpus_row(f, t) for f, t in sorted(files)]}
    if verb == "verify":
        if not files:
            return {"kind": "verify", "exit": 0, "cells": THEOREM_COUNT * BUILTIN_CORPUS_SIZE}
        tables = [t for _, t in sorted(files)]
        return {"kind": "verify", "exit": 0, "cells": THEOREM_COUNT * len(tables),
                "chain": _chain(tables)}
    raise ValueError(f"no oracle for {verb!r}")


def check(expected: dict, exit_code, stdout: str) -> Optional[str]:
    """None when the output is correct, else the first difference found."""
    if exit_code != expected["exit"]:
        return f"exit {exit_code}, expected {expected['exit']}"
    kind = expected["kind"]
    if kind == "exact":
        return None if stdout == expected["text"] else f"output {stdout[:200]!r}"
    if kind == "prefix":
        ok = stdout.startswith(expected["text"]) and stdout.count("\n") == 1
        return None if ok else f"output {stdout[:200]!r}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if kind == "classify":
        return _diff(expected["doc"], doc, "")
    if kind == "corpus":
        return _diff({"rows": expected["rows"]}, doc, "")
    cells = doc.get("cells", [])
    if doc.get("aggregate") != "pass":
        return f"aggregate {doc.get('aggregate')!r}"
    if len(cells) != expected["cells"]:
        return f"{len(cells)} cells, expected {expected['cells']}"
    bad = [c for c in cells if c.get("status") in ("fail", "error")]
    if bad:
        return f"{len(bad)} failing cells, first {bad[0]}"
    if "chain" in expected:
        return _diff(expected["chain"], doc.get("inclusion_chain"), "inclusion_chain")
    return None


def _diff(want, got, path: str) -> Optional[str]:
    """First place where ``got`` lacks or differs from a value in ``want``;
    keys that ``want`` does not name are not compared."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for key, value in want.items():
            if key not in got:
                return f"{path}.{key}: missing"
            d = _diff(value, got[key], f"{path}.{key}")
            if d:
                return d
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: expected a list of {len(want)}"
        for i, (w, g) in enumerate(zip(want, got)):
            d = _diff(w, g, f"{path}[{i}]")
            if d:
                return d
        return None
    return None if want == got and type(want) is type(got) else f"{path}: {got!r} != {want!r}"
