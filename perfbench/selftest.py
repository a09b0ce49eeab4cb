#!/usr/bin/env python3
"""Self-tests that show the benchmark measures what it claims.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seconds S] [--seed N]

1. Sensitivity: a known delay spun before every `qasm::parse` call must move
   `latency_ms_p50` and `circuits_per_s` on `paper_small_medium_qasm` by more
   than their bounds in BENCHMARK.json, and must leave them within their
   bounds on `batch_generated`, which never parses (medians of `--pairs`
   alternating runs with and without the delay).
2. Determinism: two runs with the same seed report identical quality metrics
   and inputs; a second seed changes the inputs.
3. Tracing: each workload's traced run passes its own checks (staged replay
   op-identical to the compile, spans plus `bench.unattributed_ms` within a
   tenth of the untraced pass time) and, together, the traces hold spans for
   every layer. Every run reports exactly the metrics BENCHMARK.json names.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DELAY_US = 1000
QUALITY = ["shuttles", "exec_time_ms", "neg_log10_fidelity", "shuttle_reduction_pct"]
LAYERS = [
    "bench.request",
    "qasm.parse",
    "circuit.validate",
    "dag.build",
    "muss_ti.compile",
    "muss_ti.place",
    "muss_ti.schedule",
    "muss_ti.swap_insertion",
    "muss_ti.lower",
    "eml_qccd.evaluate",
    "pipeline.batch",
    "verify.verify",
    "baselines.compile",
]
WORKLOADS = ["paper_large_qasm", "paper_small_medium_qasm", "batch_generated"]


def run(workload, seed, seconds, trace=0, extra=()):
    """Runs one workload; returns (result JSON, stdout lines)."""
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            *extra,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def check(ok, message):
        print(("PASS " if ok else "FAIL ") + message, flush=True)
        if not ok:
            failures.append(message)

    # 1. Sensitivity. Runs with and without the delay alternate, and each
    # side's median is compared, so drift on the host hits both sides.
    for workload, should_move in [("paper_small_medium_qasm", True), ("batch_generated", False)]:
        base, slow = [], []
        for _ in range(args.pairs):
            base.append(run(workload, args.seed, args.seconds)[0])
            slow.append(run(workload, args.seed, args.seconds, extra=["--inject-delay-us", str(DELAY_US)])[0])
        check(
            all(set(r["metrics"]) == set(bounds) for r in base + slow),
            f"{workload}: untraced runs report exactly the end-to-end metrics of BENCHMARK.json",
        )
        for name in ["latency_ms_p50", "circuits_per_s"]:
            before = statistics.median(value(r, name) for r in base)
            after = statistics.median(value(r, name) for r in slow)
            change = (after - before) / before
            worse = change if bounds[name]["better"] == "lower" else -change
            bound = bounds[name]["bound"]
            if should_move:
                check(
                    worse > bound,
                    f"{workload}: {DELAY_US} us before each parse worsens {name} "
                    f"{before:.4f} -> {after:.4f} ({worse:+.1%}, bound {bound:.0%})",
                )
            else:
                check(
                    worse <= bound,
                    f"{workload}: the same delay leaves {name} within its bound "
                    f"{before:.4f} -> {after:.4f} ({worse:+.1%}, bound {bound:.0%})",
                )

    # 2. Determinism of quality metrics and inputs.
    for workload in WORKLOADS:
        first, first_lines = run(workload, args.seed, 1)
        again, again_lines = run(workload, args.seed, 1)
        other, other_lines = run(workload, args.seed + 1, 1)
        digest = [l for l in first_lines if l.startswith("inputs:")]
        same = all(value(first, q) == value(again, q) for q in QUALITY)
        check(
            same and digest == [l for l in again_lines if l.startswith("inputs:")],
            f"{workload}: seed {args.seed} twice gives identical inputs and quality metrics "
            + ", ".join(f"{q}={value(first, q):.4f}" for q in QUALITY),
        )
        check(
            digest != [l for l in other_lines if l.startswith("inputs:")],
            f"{workload}: seed {args.seed + 1} changes the inputs",
        )

    # 3. Traced runs.
    seen = set()
    for workload in WORKLOADS:
        trace_out = os.path.join("perfbench", "out", f"selftest-{workload}.jsonl")
        result, lines = run(workload, args.seed, args.seconds, trace=1, extra=["--trace-out", trace_out])
        for line in lines:
            if line.startswith("trace:"):
                print("     " + line)
        check(result["correct"], f"{workload}: traced run passes its replay and accounting checks")
        check(
            set(result["metrics"]) == per_layer,
            f"{workload}: traced run reports exactly the per-layer metrics of BENCHMARK.json",
        )
        with open(os.path.join(ROOT, trace_out)) as f:
            seen.update(json.loads(line)["name"] for line in f)
    missing = [layer for layer in LAYERS if layer not in seen]
    check(not missing, f"traces hold spans for every layer (missing: {missing or 'none'})")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
