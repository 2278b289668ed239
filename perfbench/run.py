#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train|eval|serve|all \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, runs it, echoes its report, and
prints as the last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics BENCHMARK.json lists
(`--trace 0`) or its per-layer metrics (`--trace 1`). The full result,
with every metric, the per-row tables and provenance, is written to
perfbench/out/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 0


def run_workload(spec, workload, args):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--nproc", str(nproc())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        die(f"{workload}: benchmark exited with {proc.returncode}", proc.returncode or 1)
    full = json.loads(lines[-1])
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    missing = [n for n in names if n not in full["metrics"]]
    if missing:
        die(f"{workload}: metrics missing from the result: {', '.join(missing)}")
    return {"correct": full["correct"], "attempted": full["attempted"],
            "failed": full["failed"],
            "metrics": {n: full["metrics"][n] for n in names}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            die(f"{need} not found: run from the root of a full checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known + ["all"]:
        die(f"unknown workload {args.workload} (known: {', '.join(known)}, all)")

    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    try:
        # no shared dune cache: the build reads and writes only the checkout
        build = subprocess.run([dune, "build", "--root", ".", "--cache=disabled",
                                "./perfbench/main.exe"],
                               stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out", 3)
    if build.returncode != 0:
        die("build failed", build.returncode)

    if args.workload != "all":
        print(json.dumps(run_workload(spec, args.workload, args)))
        return
    # every workload in turn; metric names are prefixed with the workload
    results = {w: run_workload(spec, w, args) for w in known}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": v for w, r in results.items()
                    for n, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
