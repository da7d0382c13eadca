"""Layer spans recorded from outside the program.

The child process installs a wrapper around each public function listed in
``LAYERS``, at every ``nearrings`` module namespace that binds it, so a call
made through ``from .nmodules import is_N_ideal`` in ``classify`` is traced
too.  Each call records one span: name, start, end, parent span, command id,
whether it raised, and a detail (the theorem id for ``theorems.check``).
Spans stay in memory until the command ends; ``layer_metrics`` turns the
spans of one pass into the per-layer metrics.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = {
    "core": ("load_nearring", "parse_table", "from_document", "validate_group",
             "validate_nearring", "build_M0", "build_product", "build_extension"),
    "catalog": ("builtin", "default_corpus"),
    "nmodules": ("is_N_ideal", "enumerate_left_ideals", "is_ideal", "quotient_module",
                 "modules_isomorphic", "left_orbits", "left_annihilators", "orbit",
                 "annihilator"),
    "classify": ("units", "is_left_morphic", "all_element_profiles", "structure_profile"),
    "theorems": ("run_suite", "check"),
    "cli": ("main",),
}

# The functions memoised with functools.lru_cache at the commit that defined
# the benchmark; ``.computed`` counts the calls that were not cache hits.
CACHED = ("nmodules.left_annihilators", "nmodules.left_orbits", "classify.units",
          "classify.is_left_morphic", "classify.all_element_profiles",
          "classify.structure_profile")

# The 22 theorem ids of the seed catalog, one ``theorems.check.<id>.s`` each.
THEOREM_IDS = (
    "lemma1_equiv", "lemma10", "prop2", "prop64", "product_morphic",
    "ccc_decomposition", "wsw_morphic", "lemma213", "lemma_hdt", "lemma13",
    "lemma_ffff", "prop_ff_square", "prop_ff_morphic", "lemma_this_thm217",
    "prop_cccxi", "prop226", "thm62", "prop_tttt", "ehrlich_T", "ex20_claim",
    "ex20c_claim", "ex_gggg_claim",
)

NAME, START, END, PARENT, CMD, RAISED, DETAIL = range(7)


class Tracer:
    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nearrings" or name.startswith("nearrings."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"nearrings.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                qualified = f"{layer}.{fn_name}"
                self._originals[qualified] = original
                wrapper = self._wrap(qualified, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, cmd = self.spans, self._stack, self.cmd_id
        is_check = name == "theorems.check"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            detail = None
            if is_check:
                detail = args[1] if len(args) > 1 else kwargs.get("theorem_id")
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, cmd, False, detail]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return wrapper

    def computed(self) -> dict[str, int]:
        """Cache misses of each memoised function; a function without a
        cache computes on every call."""
        out = {}
        for name in CACHED:
            fn = self._originals.get(name)
            info = getattr(fn, "cache_info", None)
            if info is not None:
                out[name] = info().misses
            else:
                out[name] = sum(1 for s in self.spans if s[NAME] == name)
        return out


def metric_names() -> list[str]:
    names = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.s", f"{layer}.{fn}.self_s"]
    names += [f"theorems.check.{tid}.s" for tid in THEOREM_IDS]
    names += [f"{layer}.raised" for layer in LAYERS]
    names += [f"{name}.computed" for name in CACHED]
    return names


def layer_metrics(commands: list[tuple[list[list], dict[str, int]]]) -> dict[str, float]:
    """Sum the per-layer metrics over one pass's commands, each given as its
    spans and its ``computed`` counts.  Self time is a span's duration minus
    its direct children's; inclusive time counts only the outermost span of
    a name, so a function nested in itself is not counted twice."""
    out = dict.fromkeys(metric_names(), 0.0)
    for spans, computed in commands:
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(spans):
            name, dur = span[NAME], span[END] - span[START]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[i]
            if not _nested_in_same(spans, i):
                out[f"{name}.s"] += dur
            if span[DETAIL] is not None:
                key = f"{name}.{span[DETAIL]}.s"
                if key in out:
                    out[key] += dur
            if span[RAISED]:
                out[f"{name.split('.')[0]}.raised"] += 1
        for name, count in computed.items():
            out[f"{name}.computed"] += count
    return out


def _nested_in_same(spans: list[list], i: int) -> bool:
    name, parent = spans[i][NAME], spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
