#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 benchmark/smoke.py [--seconds S]

Runs every workload of BENCHMARK.json briefly (one set-up per run), once
untraced and once traced, through benchmark/run.py, and checks that each
run exits 0, ends with a well-formed result line, passes every correctness
check, and prints every declared metric by name with its declared unit.
It also reports the tracing overhead per workload: the traced run's
trace.shot_p50_us and trace.float_shots_per_s minus the untraced run's
shot_p50_us and float_shots_per_s (same seed). Takes a few minutes; exits
non-zero if anything is missing or wrong.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    # stream_fanin and recal_swap run like the declared workloads but are
    # not in BENCHMARK.json: too unsteady to gate (see README.md).
    workloads = [w["name"] for w in spec["workloads"]] + ["stream_fanin", "recal_swap"]
    problems = []
    overhead = []
    for name in workloads:
        runs = {}
        for trace in (0, 1):
            declared = spec["per_layer" if trace else "end_to_end"]
            cmd = [sys.executable, "benchmark/run.py", "--workload", name, "--seed", "1",
                   "--seconds", str(args.seconds), "--trace", str(trace), "--setup-repeats", "1"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            tag = f"{name} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{tag}: no result line (exit {proc.returncode})")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: exit {proc.returncode}, correct {result['correct']}, "
                                f"failed {result['failed']}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result["attempted"] < 1:
                problems.append(f"{tag}: nothing attempted")
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} [{m['unit']}] missing or "
                                    f"mislabelled: {got}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{tag}: metric {m['name']} is {got['value']}")
                elif not trace and got["value"] == 0:
                    problems.append(f"{tag}: end-to-end metric {m['name']} is 0")
            extra = set(result["metrics"]) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{tag}: undeclared metrics {sorted(extra)}")
            print(f"{tag}: exit {proc.returncode}, {len(result['metrics'])} metrics, "
                  f"{result['attempted']} checks, {result['failed']} failed", flush=True)
            runs[trace] = {k: v["value"] for k, v in result["metrics"].items()}
        if len(runs) == 2:
            u, t = runs[0], runs[1]
            overhead.append(f"{name}: shot_p50_us {t['trace.shot_p50_us'] - u['shot_p50_us']:+.2f}"
                            f" us, float_shots_per_s "
                            f"{t['trace.float_shots_per_s'] - u['float_shots_per_s']:+.0f} /s")
    for o in overhead:
        print("tracing overhead (traced - untraced):", o)
    for p in problems:
        print("PROBLEM:", p)
    print("smoke:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
