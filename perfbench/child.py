"""Run one CLI command in a fresh interpreter and report on it.

Usage: python3 child.py REQUEST_JSON, run with the workload's input
directory as the working directory.  The request holds the checkout root,
the parent's CLOCK_MONOTONIC reading taken just before it started this
process, the command id, whether to trace, and the argv for
``nearrings.cli.main``.  One JSON object is printed on stdout: set-up time
(process start until ``nearrings.cli`` is imported), time inside
``cli.main``, exit code, the command's output, peak RSS, and with tracing
the spans and cache-miss counts.
"""
import io
import json
import os
import resource
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """High-water RSS of this process's own address space.  ``ru_maxrss``
    alone is not enough: Linux carries the parent's peak into it across
    fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    req = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(req["root"], "src"))
    import nearrings.cli as cli
    ready = time.monotonic()

    tracer = None
    if req["trace"]:
        from tracing import Tracer
        tracer = Tracer(req["cmd"])
        tracer.install()

    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        code = cli.main(req["argv"], out=buf)
    except Exception:  # a crash is reported as a failed command
        code, error = None, traceback.format_exc()
    main_s = time.perf_counter() - start

    result = {
        "setup_s": ready - req["spawned"],
        "main_s": main_s,
        "exit": code,
        "stdout": buf.getvalue(),
        "error": error,
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["computed"] = tracer.computed()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
