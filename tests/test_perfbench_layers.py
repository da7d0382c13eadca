"""The benchmark's traced functions exist.

``perfbench/tracing.py`` wraps each function named in its ``LAYERS`` and
silently skips a name its module no longer binds, so a refactor that drops
one would zero that function's per-layer metrics without any error.
"""
import importlib
import importlib.util
from pathlib import Path

# Deleted on purpose: frozenset copies of the rows of ``orbit_masks`` and
# ``annihilator_masks``, which ``orbit`` and ``annihilator`` read directly.
REMOVED = {"nmodules.left_orbits", "nmodules.left_annihilators"}


def tracing_layers():
    """``LAYERS`` from ``perfbench/tracing.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_every_traced_function_resolves():
    # a removed name that resolves again is listed too: REMOVED is then stale
    wrong = []
    for layer, names in tracing_layers().items():
        module = importlib.import_module(f"nearrings.{layer}")
        for name in names:
            qualified = f"{layer}.{name}"
            if callable(getattr(module, name, None)) == (qualified in REMOVED):
                wrong.append(qualified)
    assert wrong == []
