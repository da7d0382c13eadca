"""Catalog of named builtin near-rings.

Element orderings are deterministic and documented per entry:
  klein4_ring       0, a, b, c on the Klein four group; b is the unity.
  m0_z3             zero-fixing maps on Z3, lexicographic on (f(1), f(2)),
                    so f_i sits at index i-1; f6 is the identity map.
  zn_ring(n)        residues 0..n-1 mod n, 2 <= n <= 64.
  mat2_f2           2x2 matrices over F2; index of [[a,b],[c,d]] is
                    8a + 4b + 2c + d.
  ext_f2_f2         R x M extension with R = F2, M = F2; index = 2a + m.
  ext_mat2f2_f2sq   R = mat2_f2, M = F2^2 (column vectors, index 2*v1 + v2);
                    index = 4a + m.
  klein4_x_f2       direct product klein4_ring x zn_ring(2), row-major.
"""
from __future__ import annotations

import re
from functools import lru_cache

from .core import (FiniteGroup, NearRing, build_extension, build_M0, build_product,
                   validate_group, validate_nearring)
from .nmodules import NModule, validate_module

ZN_MIN, ZN_MAX = 2, 64

_KLEIN4_ADD = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]
_KLEIN4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 1, 0],
    [0, 1, 2, 3],
    [0, 0, 3, 3],
]


@lru_cache(maxsize=None)
def _klein4_ring() -> NearRing:
    return validate_nearring(_KLEIN4_ADD, _KLEIN4_MUL,
                             labels=("0", "a", "b", "c"), name="klein4_ring")


@lru_cache(maxsize=None)
def _zn_ring(n: int) -> NearRing:
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return validate_nearring(add, mul, one=1 % n,
                             labels=tuple(str(i) for i in range(n)),
                             name=f"zn_ring({n})")


@lru_cache(maxsize=None)
def _zn_group(n: int) -> FiniteGroup:
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_group(add, labels=tuple(str(i) for i in range(n)))


@lru_cache(maxsize=None)
def _m0_z3() -> NearRing:
    return build_M0(_zn_group(3), name="m0_z3")


def _mat_bits(i: int) -> tuple[int, int, int, int]:
    return ((i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1)


@lru_cache(maxsize=None)
def _mat2_f2() -> NearRing:
    def mat_mul(x, y):
        a, b, c, d = _mat_bits(x)
        e, f, g, h = _mat_bits(y)
        return (((a * e + b * g) % 2) << 3 | ((a * f + b * h) % 2) << 2
                | ((c * e + d * g) % 2) << 1 | ((c * f + d * h) % 2))

    add = [[i ^ j for j in range(16)] for i in range(16)]
    mul = [[mat_mul(i, j) for j in range(16)] for i in range(16)]
    labels = tuple("m%d%d%d%d" % _mat_bits(i) for i in range(16))
    return validate_nearring(add, mul, one=0b1001, labels=labels, name="mat2_f2")


@lru_cache(maxsize=None)
def _f2_module() -> NModule:
    ring = _zn_ring(2)
    action = [[(r * m) % 2 for m in range(2)] for r in range(2)]
    return validate_module(ring, _zn_group(2), action)


@lru_cache(maxsize=None)
def _f2sq_group() -> FiniteGroup:
    # vectors (v1, v2) over F2, index 2*v1 + v2; addition is XOR
    add = [[i ^ j for j in range(4)] for i in range(4)]
    return validate_group(add, labels=("v00", "v01", "v10", "v11"))


@lru_cache(maxsize=None)
def _f2sq_module() -> NModule:
    ring = _mat2_f2()

    def act(r, v):
        a, b, c, d = _mat_bits(r)
        v1, v2 = (v >> 1) & 1, v & 1
        return ((a * v1 + b * v2) % 2) << 1 | ((c * v1 + d * v2) % 2)

    action = [[act(r, v) for v in range(4)] for r in range(16)]
    return validate_module(ring, _f2sq_group(), action)


@lru_cache(maxsize=None)
def _ext_f2_f2() -> NearRing:
    return build_extension(_zn_ring(2), _f2_module(), name="ext_f2_f2")


@lru_cache(maxsize=None)
def _ext_mat2f2_f2sq() -> NearRing:
    return build_extension(_mat2_f2(), _f2sq_module(), name="ext_mat2f2_f2sq")


@lru_cache(maxsize=None)
def _klein4_x_f2() -> NearRing:
    return build_product((_klein4_ring(), _zn_ring(2)), name="klein4_x_f2")


_FIXED = {
    "klein4_ring": _klein4_ring,
    "m0_z3": _m0_z3,
    "mat2_f2": _mat2_f2,
    "ext_f2_f2": _ext_f2_f2,
    "ext_mat2f2_f2sq": _ext_mat2f2_f2sq,
    "klein4_x_f2": _klein4_x_f2,
}

# ASCII digits without a leading zero: the spelling catalog_names uses.
_ZN_RE = re.compile(r"zn_ring\(([1-9][0-9]*)\)")


def builtin(name: str) -> NearRing:
    """Return the validated builtin near-ring with the given catalog name."""
    if name in _FIXED:
        return _FIXED[name]()
    m = _ZN_RE.fullmatch(name)
    if m:
        digits = m.group(1)
        # Without leading zeros, more digits than ZN_MAX has is out of
        # range; int() refuses very long digit strings with its own error.
        if len(digits) > len(str(ZN_MAX)) or not ZN_MIN <= int(digits) <= ZN_MAX:
            raise ValueError(f"zn_ring order must be in [{ZN_MIN},{ZN_MAX}], got {digits}")
        return _zn_ring(int(digits))
    raise KeyError(f"unknown builtin {name!r}")


def catalog_names() -> list[str]:
    names = list(_FIXED) + [f"zn_ring({n})" for n in range(ZN_MIN, ZN_MAX + 1)]
    return sorted(names)


DEFAULT_CORPUS_NAMES = (
    "klein4_ring",
    "zn_ring(2)",
    "zn_ring(4)",
    "zn_ring(6)",
    "m0_z3",
    "mat2_f2",
    "klein4_x_f2",
    "ext_f2_f2",
    "ext_mat2f2_f2sq",
)


def default_corpus() -> list[tuple[str, NearRing]]:
    return [(name, builtin(name)) for name in DEFAULT_CORPUS_NAMES]
