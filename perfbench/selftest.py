#!/usr/bin/env python3
"""Self-tests of the repository benchmark (see perfbench/README.md).

    python3 perfbench/selftest.py

Runs each workload's reference pass only (--seconds 0) through run.py
and checks that:
  - two runs of one seed print identical digests and counts;
  - a new seed changes the digests of f2_sweep and mesh64_shared but
    not that of mesh64_stream, which generates no data;
  - f2_sweep at seed 0 is exactly the shipped workload::standardSuite(2)
    sweep (the f2_reference workload);
  - a deliberately hung point counts as exactly one failed point;
  - the counts confirm each workload's design (README.md, "Workloads").
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
failures = []


def run(workload, seed):
    """Reference pass of one workload: digest, counts and the result."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"selftest: {workload} seed {seed} exited with "
                 f"{proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    counts_line = next(l for l in lines if l.startswith("counts "))
    counts = {k: float(v) for k, v in
              (kv.split("=") for kv in counts_line.split()[1:])}
    return digest, counts, json.loads(lines[-1])


def check(ok, what):
    print(("ok      " if ok else "FAILED  ") + what)
    if not ok:
        failures.append(what)


def main():
    first = {w: run(w, 1) for w in ("f2_sweep", "mesh64_stream",
                                    "mesh64_shared")}
    for w, (digest, counts, result) in first.items():
        check(result["correct"] and result["failed"] == 0,
              f"{w}: every point passes the correctness gate")
        again = run(w, 1)
        check(again[0] == digest and again[1] == counts,
              f"{w}: a second run of seed 1 repeats digest and counts")
        other = run(w, 2)[0]
        if w == "mesh64_stream":
            check(other == digest, f"{w}: seed 2 keeps the digest")
        else:
            check(other != digest, f"{w}: seed 2 changes the digest")

    check(run("f2_sweep", 0)[0] == run("f2_reference", 0)[0],
          "f2_sweep at seed 0 matches workload::standardSuite(2)")

    _, _, hang = run("hang_probe", 1)
    check(hang["attempted"] == 2 and hang["failed"] == 1 and
          not hang["correct"],
          "hang_probe: the hung point is exactly one failed point")

    f2, stream, shared = (first[w][1] for w in
                          ("f2_sweep", "mesh64_stream", "mesh64_shared"))
    check(all(stream[k] == 0 for k in stream if k.startswith("core.")),
          "mesh64_stream: speculation counts are zero")
    check(stream["mem.dir_invs"] == 0 and stream["mem.dir_fwds"] == 0,
          "mesh64_stream: no invalidations or forwards")
    check(f2["mem.net_hops_per_msg"] == 1.0,
          "f2_sweep: one hop per message")
    check(stream["mem.net_hops_per_msg"] > 6 and
          shared["mem.net_hops_per_msg"] > 6,
          "mesh workloads: more than six hops per message")
    check(stream["mem.dir_dram_reads"] / stream["mem.l1_misses"] >
          shared["mem.dir_dram_reads"] / shared["mem.l1_misses"],
          "DRAM reads per L1 miss: mesh64_stream above mesh64_shared")
    check(shared["core.rollbacks"] > 0 and f2["core.epochs"] > 0,
          "mesh64_shared and f2_sweep speculate")

    print(f"\n{len(failures)} check(s) failed" if failures
          else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
