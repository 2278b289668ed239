#!/usr/bin/env python3
"""Perf-regression gate for the benched subsystems.

Usage: bench_gate.py BASELINE.json CANDIDATE.json [CANDIDATE2.json ...]

Compares the `gate` section of freshly-benched BENCH_*.json files
against the committed baseline and exits 2 if a gated series regressed
by more than the tolerance (BENCH_GATE_TOL, default 0.25 = 25%), or if
a gated series is in the baseline but not in a candidate, or the
reverse. The document `kind` selects which series are enforced; all
files on one invocation must share a kind (one gate run per subsystem).

The gated values are *calibration-relative*: each kernel's ns/run is
divided by the ns/run of an untiled 4k dot product benched in the same
process, so raw machine speed mostly cancels and the committed baseline
is meaningful on a different runner. Sync-bound rows (pool dispatch)
are still noisy, so the workflow benches more than once and this script
takes the best (minimum) candidate value per series before comparing.
"""

import json
import os
import sys

# One declarative entry per benched subsystem: the document kind, the
# gated series (everything else in `gate` is printed for context) and
# what the gate protects. Adding a subsystem = adding a row here plus
# its bench section and committed BENCH_*.json baseline.
GATE_TABLE = [
    {
        "kind": "bench-parallel",
        "gated": ("gemm_rel", "gemm_nt_rel", "gemm_tn_acc_rel",
                  "pool_dispatch_rel"),
        "why": "the DQN learner's gemm kernels (input gradient, forward, "
               "weight gradient) and pool dispatch overhead",
    },
    {
        "kind": "bench-analysis",
        "gated": ("sanitize_rel", "lint_rel", "absint_rel", "equiv_rel",
                  "interp_rel", "passes_rel", "cfg_rel"),
        "why": "the sanitizer and lint on their hot path, "
               "plus the value-range analysis, the bounded "
               "translation-validation check of the equiv tier, "
               "the interpreter it and eval run programs with, "
               "the -Oz pass pipeline, and the control-flow facts "
               "(CFG, dominators, loops) the passes rebuild",
    },
    {
        "kind": "bench-obs",
        "gated": ("span_disabled_rel", "counter_inc_rel", "hist_observe_rel",
                  "watchdog_tick_rel", "attrib_observe_rel",
                  "coverage_observe_rel"),
        "why": "telemetry every run pays: span no-sink fast path and "
               "counter/histogram updates, the watchdog rule pass (per "
               "trainer tick), and the streaming attribution and coverage "
               "folds (per env step)",
    },
    {
        "kind": "bench-serve",
        "gated": ("serve_cold_cost_rel", "serve_hot_cost_rel", "serve_hot_p99_rel"),
        "why": "serve daemon per-request cost: cold (admission + batched "
               "rollout) and hot (IR-hash cache hit) paths of POST /optimize",
    },
]

GATED = {row["kind"]: row["gated"] for row in GATE_TABLE}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    kind = doc.get("kind")
    if kind not in GATED or "gate" not in doc:
        sys.exit(f"bench_gate: {path} is not a gated BENCH_*.json document")
    return kind, doc["gate"]


def main(argv):
    if len(argv) < 3:
        sys.exit(f"usage: {argv[0]} BASELINE.json CANDIDATE.json [CANDIDATE.json ...]")
    tol = float(os.environ.get("BENCH_GATE_TOL", "0.25"))
    kind, base = load(argv[1])
    cands = []
    for p in argv[2:]:
        k, g = load(p)
        if k != kind:
            sys.exit(f"bench_gate: {p} is {k}, baseline is {kind}")
        cands.append(g)
    gated = GATED[kind]

    regressed = False
    print(f"bench gate [{kind}]: {len(cands)} candidate run(s), tolerance {tol:.0%}")
    # a series on one side only cannot be compared: name it, and fail
    # if the gate enforces it
    missing = False
    for p, g in zip(argv[2:], cands):
        for key in sorted(set(base) ^ set(g)):
            has, lacks = (argv[1], p) if key in base else (p, argv[1])
            tag = "MISSING gated series" if key in gated else "missing series (context)"
            print(f"  {tag} {key}: in {has}, not in {lacks}")
            missing |= key in gated
    for key in sorted(base):
        if key == "calib_ns" or not all(key in g for g in cands):
            continue
        b = base[key]
        c = min(x[key] for x in cands)
        ratio = c / b if b > 0 else float("inf")
        if key in gated:
            bad = ratio > 1.0 + tol
            regressed |= bad
            status = "REGRESSED" if bad else "ok"
        else:
            status = "(context)"
        print(f"  {key:20s} base {b:10.3f}  cand {c:10.3f}  ratio {ratio:5.2f}  {status}")

    if missing:
        print("bench gate: a gated series is missing")
        return 2
    if regressed:
        print("bench gate: regression detected")
        return 2
    print("bench gate: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
