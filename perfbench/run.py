#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload mesh64_stream --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Builds perfbench/ (and the simulator sources it links) into .bench_build
at the checkout root, then runs one workload in its own fl_perfbench
process, so a simulator panic fails that workload's run only.  The last
stdout line is the driver's JSON result.  `--workload all` runs
f2_sweep, mesh64_stream and mesh64_shared one after another and ends
with a summary table instead.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["f2_sweep", "mesh64_stream", "mesh64_shared"]
# A run is pass 0 plus --seconds of timed passes plus one pass of
# overshoot; past this the driver has hung.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not (ROOT / "src" / "harness" / "system.hh").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "fl_perfbench", "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "fl_perfbench"


def run_one(binary, workload, args):
    """Run one workload; return its stdout lines and parsed result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(out_dir / f"{workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload}: fl_perfbench exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: no JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result line")
    return lines, result


def summary(rows):
    """One row per workload: verdict, points, digest and every metric."""
    print("\nworkload        correct  failed/attempted  digest            "
          "metrics")
    for workload, lines, result in rows:
        digest = next((l.split()[1] for l in lines
                       if l.startswith("digest ")), "-")
        metrics = "  ".join(f"{name}={m['value']:.6g} {m['unit']}"
                            for name, m in result["metrics"].items())
        print(f"{workload:15s} {str(result['correct']):8s} "
              f"{result['failed']}/{result['attempted']:<15} {digest}  "
              f"{metrics}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")

    binary = build()
    if args.workload != "all":
        lines, _ = run_one(binary, args.workload, args)
        print("\n".join(lines), flush=True)
        return 0

    rows = []
    for workload in WORKLOADS:
        lines, result = run_one(binary, workload, args)
        print("\n".join(lines[:-1]), flush=True)
        rows.append((workload, lines, result))
    summary(rows)
    return 0 if all(r["correct"] for _, _, r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
