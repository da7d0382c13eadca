"""The repository benchmark: real CLI commands on seeded inputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI command runs in its own fresh interpreter (``child.py``), one at a
time: a closed loop with one client, where every call pays for the import
and starts with cold caches, as a real CLI call does.  A pass runs all of
the workload's commands once; passes repeat until ``--seconds`` have gone,
and each metric is the median over passes.  Every command's exit code and
output are checked against ``oracle.py``; for the default seed the output
must also match the digests in ``digests.json`` byte for byte.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
untraced and traced passes alternate: the traced ones give the per-layer
metrics (see ``tracing.py``), and the untraced ones give the per-command
times and the tracing overhead.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.

Inputs and their expected results are cached per seed under
``perfbench/.cache``, keyed by the generator and oracle sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
# Every run ends well inside the three minutes a run may take.
HARD_LIMIT_S = 160.0
COMMANDS = ("validate", "classify", "verify", "corpus")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {f"{c}_s": "s" for c in COMMANDS}
    for name in tracing.metric_names():
        units[name] = "s" if name.endswith("_s") or name.endswith(".s") else "count"
    units["trace.overhead_frac"] = "frac"
    return units


def prepare(workload: str, seed: int) -> tuple[Path, list[dict]]:
    """Write the workload's inputs and expected results once per seed."""
    key = hashlib.sha256((HERE / "gen.py").read_bytes()
                         + (HERE / "oracle.py").read_bytes()).hexdigest()[:12]
    target = CACHE / key / f"{workload}-{seed}"
    manifest = target / "expected.json"
    if not manifest.is_file():
        tmp = target.with_name(target.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        (tmp / "in").mkdir(parents=True)
        entries = []
        for cmd in gen.commands(workload, seed):
            for name, obj in cmd.files:
                path = tmp / "in" / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(obj if isinstance(obj, str) else gen.document(obj))
            entries.append({"argv": list(cmd.argv), "expect": oracle.expect(cmd)})
        (tmp / "expected.json").write_text(json.dumps(entries))
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    return target / "in", json.loads(manifest.read_text())


def run_command(inputs: Path, argv: list[str], cmd_id: int, trace: bool,
                deadline: float) -> dict:
    """Run one command in a child interpreter; a crash or a timeout comes
    back as a result with ``failure`` set."""
    spawned = time.monotonic()
    req = json.dumps({"root": str(ROOT), "spawned": spawned, "trace": trace,
                      "cmd": cmd_id, "argv": argv})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), req], cwd=inputs,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"failure": "timed out"}
    try:
        result = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {"failure": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    if result["error"]:
        result["failure"] = result["error"]
    return result


def run_pass(inputs: Path, entries: list[dict], trace: bool, digests, deadline: float,
             tally: dict) -> dict:
    """Run every command once; return the pass's metrics."""
    results = []
    for i, entry in enumerate(entries):
        r = run_command(inputs, entry["argv"], i, trace, deadline)
        reason = r.get("failure") or oracle.check(entry["expect"], r["exit"], r["stdout"])
        if reason is None and digests is not None:
            digest = hashlib.sha256(r["stdout"].encode("utf-8")).hexdigest()
            if i >= len(digests) or digest != digests[i]:
                reason = "stdout differs from the recorded digest"
        tally["attempted"] += 1
        if reason:
            tally["failed"] += 1
            print(f"command {i} {' '.join(entry['argv'])}: {reason}", file=sys.stderr)
        results.append(r)
        if "failure" in r and time.monotonic() >= deadline:
            break
    done = [r for r in results if "main_s" in r]
    metrics = {
        "wall_s": sum(r["main_s"] for r in done),
        "setup_s": sum(r["setup_s"] for r in done),
        "peak_rss_mb": max((r["maxrss_kb"] for r in done), default=0) / 1024,
    }
    for c in COMMANDS:
        metrics[f"{c}_s"] = sum(r["main_s"] for r, e in zip(results, entries)
                                if "main_s" in r and e["argv"][0] == c)
    if trace:
        metrics.update(tracing.layer_metrics([(r["spans"], r["computed"]) for r in done]))
    metrics["outputs"] = [r.get("stdout") for r in results]
    return metrics


def median_of(passes: list[dict], name: str) -> float:
    return statistics.median(p[name] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run one checked pass on the default seed and store "
                             "its output digests")
    args = parser.parse_args(argv)
    begin = time.monotonic()
    if not (ROOT / "src" / "nearrings" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'nearrings'} is missing",
              file=sys.stderr)
        return 2
    hard_deadline = begin + HARD_LIMIT_S

    inputs, entries = prepare(args.workload, args.seed)
    prep_s = time.monotonic() - begin
    # One untimed import compiles the program's bytecode before any timing.
    run_command(inputs, ["builtin", "--list"], -1, False, hard_deadline)

    all_digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    digests = all_digests.get(args.workload) if args.seed == DEFAULT_SEED else None
    tally = {"attempted": 0, "failed": 0}

    if args.record_digests:
        if args.seed != DEFAULT_SEED:
            parser.error("--record-digests needs the default seed")
        p = run_pass(inputs, entries, False, None, hard_deadline, tally)
        if tally["failed"]:
            return 1
        all_digests[args.workload] = [hashlib.sha256(o.encode("utf-8")).hexdigest()
                                      for o in p["outputs"]]
        DIGESTS.write_text(json.dumps(all_digests, indent=1, sort_keys=True) + "\n")
        return 0

    deadline = time.monotonic() + args.seconds
    kinds = (False, True) if args.trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    i = 0
    while i < len(kinds) or time.monotonic() < deadline:
        traced = kinds[i % len(kinds)]
        passes[traced].append(run_pass(inputs, entries, traced, digests, hard_deadline, tally))
        i += 1

    plain, traced = passes[False], passes[True]
    if args.trace:
        units = per_layer_units()
        values = {name: median_of(traced, name) for name in tracing.metric_names()}
        values.update({f"{c}_s": median_of(plain, f"{c}_s") for c in COMMANDS})
        values["trace.overhead_frac"] = (median_of(traced, "wall_s")
                                         / median_of(plain, "wall_s") - 1)
    else:
        units = END_TO_END
        values = {name: median_of(plain, name) for name in units}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} "
          f"traced passes in {time.monotonic() - begin:.1f}s (inputs ready after "
          f"{prep_s:.1f}s); wall_s per pass: "
          + " ".join(f"{p['wall_s']:.3f}" for p in plain + traced), file=sys.stderr)
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
