#!/usr/bin/env python3
"""The repository benchmark: builds mlqr from source and runs one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark binary into .bench_build/ (a few minutes); later
runs rebuild only what changed. The binary's own output is passed through;
the last line printed is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json, with --trace 1 its per_layer metrics. The exit status is
0 only when the build, the run and every correctness check succeeded.
Workloads, metrics and the layer each metric belongs to are described in
benchmark/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mlqr_benchmark")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring every time is cheap and recovers from an interrupted one.
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        # Build chatter goes to stderr: stdout carries only the run.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or recal_swap (see README.md)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-repeats", type=int, default=2,
                    help="set-ups per run; setup_s is their median (smoke tests use 1)")
    args = ap.parse_args()

    declared = declared_metrics(args.trace)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--setup-repeats", str(args.setup_repeats)]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(BUILD, "trace", f"{args.workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    sys.stdout.flush()
    if result is None:
        fail(f"benchmark binary exited with status {proc.returncode} without a result")

    metrics = {}
    for name, unit in declared.items():
        m = result["metrics"].get(name)
        if m is None:
            fail(f"declared metric {name} was not measured")
        if m["unit"] != unit:
            fail(f"metric {name} measured in {m['unit']}, declared in {unit}")
        metrics[name] = {"value": m["value"], "unit": unit}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
