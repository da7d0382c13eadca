"""Steadiness self-check, and one report of every metric by workload.

Runs the benchmark as BENCHMARK.json describes it, from the repository
root: ``--sets`` sets of ``--runs`` runs per workload, each run on its own
seed.  For each metric it prints the unit and, per set, the median and the
spread (the distance between the first and third quartile of the runs, as
``statistics.quantiles(values, n=4)`` gives them, over the median), then
the shift of each later set's median against the first, beside the bound.

    python3 perfbench/steady.py                       # 2 x 10 runs, all workloads
    python3 perfbench/steady.py --runs 5 --sets 1 --workload suite_small
    python3 perfbench/steady.py --trace --runs 1 --sets 1   # per-layer metrics

Exit status 1 when a run reports a failure, or when an end-to-end spread
(``setup_s`` excepted) or a shift exceeds the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def run_once(spec: dict, workload: str, seed: int, trace: bool) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        help="limit to this workload (repeatable)")
    parser.add_argument("--trace", action="store_true",
                        help="report the per-layer metrics of traced runs instead")
    parser.add_argument("--out", help="also write every run's result here, as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results: dict[str, list[list[dict]]] = {}
    ok = True
    seed = args.first_seed
    for s in range(args.sets):
        for w in workloads:
            for _ in range(args.runs):
                res = run_once(spec, w, seed, args.trace)
                seed += 1
                results.setdefault(w, [[] for _ in range(args.sets)])[s].append(res)
                if not res["correct"] or res["failed"]:
                    ok = False
                    print(f"{w} seed {seed - 1}: {res['failed']} of {res['attempted']} "
                          "commands failed", file=sys.stderr)

    print(f"{'workload':18} {'metric':42} {'unit':6} "
          + " ".join(f"{'median' + str(i + 1):>11} {'spread' + str(i + 1):>8}"
                     for i in range(args.sets))
          + f" {'shift':>7} {'bound':>6}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            shift = max((abs(md - medians[0]) / medians[0] if medians[0] else 0.0)
                        for md in medians)
            flag = ""
            if bound is not None:
                if shift > bound or (name != "setup_s" and max(spreads) > bound):
                    flag, ok = "  OVER BOUND", False
                elif name != "setup_s" and max(spreads) > bound / 3:
                    flag = "  above bound/3"
            unit = results[w][0][0]["metrics"][name]["unit"]
            print(f"{w:18} {name:42} {unit:6} "
                  + " ".join(f"{md:11.5g} {sp:8.4f}" for md, sp in zip(medians, spreads))
                  + f" {shift:7.4f} {'' if bound is None else bound:>6}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
