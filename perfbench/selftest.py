#!/usr/bin/env python3
"""Self-test of the FlexCL benchmark (a few minutes, one core).

Usage (from the repository root):  python3 perfbench/selftest.py

Checks, on every workload:
  1. two runs at one seed report identical digests, outcome counts and
     deterministic metrics (accuracy), untraced and traced — in the traced
     runs every work counter and ratio must repeat exactly;
  2. a different seed changes the data digest (explore, validate) or the
     serve-mix digest (serve-replay);
and, for validate at seed 0 over all 60 kernels, that the per-suite
accuracy equals what bench_table2_rodinia and bench_polybench print.
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

WORKLOADS = ["explore", "validate", "serve-replay"]
# Non-timing units: counts and ratios of deterministic work.
EXACT_UNITS = {"count", "cycles", "bytes", "ratio", "%"}
TIMING_PERCENT = {"trace.coverage_pct", "trace.overhead_pct"}
PINNED = [
    "rodinia: avg FlexCL abs error 10.0%, avg pick gap 3.95%",
    "polybench: avg FlexCL abs error 6.5%, avg pick gap 5.99%",
]


def bench(*args):
    store = os.path.join(run.ROOT, ".bench_build", "selftest-store")
    proc = subprocess.run([run.BINARY, "--seconds", "1", "--store", store] + list(args),
                          cwd=run.ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("selftest: run %s failed (exit %d)\n%s" %
                 (" ".join(args), proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    digests = {}
    for line in lines[:-1]:
        name, _, value = line.partition(": ")
        if name.endswith("_digest"):
            digests[name] = value
    return result, digests, lines


def deterministic(result):
    """Outcome counts plus every metric that is not a host time."""
    values = {"attempted": result["attempted"], "failed": result["failed"]}
    for name, metric in result["metrics"].items():
        if metric["unit"] in EXACT_UNITS and name not in TIMING_PERCENT:
            values[name] = metric["value"]
    return values


def check(condition, message):
    if not condition:
        sys.exit("selftest: FAILED: " + message)
    print("selftest: ok: " + message, flush=True)


def main():
    run.build()
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            a, da, _ = bench("--workload", workload, "--seed", "1", "--trace", trace)
            b, db, _ = bench("--workload", workload, "--seed", "1", "--trace", trace)
            check(da == db, "%s trace %s: digests repeat at one seed" % (workload, trace))
            check(deterministic(a) == deterministic(b),
                  "%s trace %s: counts and deterministic metrics repeat" % (workload, trace))
        c, dc, _ = bench("--workload", workload, "--seed", "2", "--trace", "0")
        key = "mix_digest" if workload == "serve-replay" else "data_digest"
        check(dc[key] != da[key], "%s: another seed changes the %s" % (workload, key))
    _, _, lines = bench("--workload", "validate", "--seed", "0", "--trace", "0",
                        "--kernels", "all")
    for pinned in PINNED:
        check(pinned in lines, "validate seed 0, all kernels: '%s'" % pinned)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
