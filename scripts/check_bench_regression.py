#!/usr/bin/env python3
"""Compare a fresh BENCH_simperf.json against committed baselines.

Usage: check_bench_regression.py BASELINE [BASELINE ...] FRESH
                                 [--threshold=0.20]

Every path but the last is a baseline; the last is the fresh run.  A
guarded benchmark passes if it is within the threshold of its *best*
baseline value -- multiple baselines let CI compare against, say, both
the committed trajectory file and the previous job's artifact without
failing on whichever happens to be slower.

Fails (exit 1) if any guarded benchmark's items_per_second dropped by
more than the threshold relative to every baseline.  Only the
simulator hot-path benchmarks are guarded: wall-clock noise on shared
CI runners makes guarding everything counterproductive, but a >20%
drop on the event kernel or the full-system run is a real regression.
On failure the absolute items/sec values are printed alongside the
ratio, so a CI log is diagnosable without downloading the artifacts.

RELATIVE_GUARDS additionally compare benchmarks *within the fresh
run*: the always-on incident-observability layer (flight recorder +
watchdog, BM_FullSystemBlackbox) must stay within 5% of the bare
full-system run, and the waste profiler within 10%.  These are
same-machine same-run comparisons, so they are immune to runner noise
and use tight thresholds.

Benchmarks present in only one file are reported but never fatal, so
adding or renaming benchmarks does not break CI in the same PR.

When a check fails and the caller passed --triage-baseline=SPEC,
--triage-fresh=SPEC and --fl-report=PATH, the fl_report binary is run
on the two runs' artifacts (SPEC is "stats.json[,profile.json]") and
its triage block -- waste-bucket deltas, worst regressed symbols,
hot-link movement -- is appended to the failure output, so the CI log
answers "what got slower" next to "that it got slower".  Triage is
best-effort: a missing binary or artifact prints a note and never
changes the exit code.
"""

import json
import statistics
import subprocess
import sys

GUARDED_PREFIXES = ("BM_EventQueue", "BM_FullSystem/",
                    "BM_FullSystemProfiled", "BM_FullSystemBlackbox",
                    "BM_FullSystemReqTrace",
                    "BM_FullSystemMesh64")

# (benchmark, reference, max fractional slowdown vs reference) --
# checked within the fresh file only.
RELATIVE_GUARDS = (
    ("BM_FullSystemBlackbox", "BM_FullSystem/1", 0.05),
    ("BM_FullSystemProfiled", "BM_FullSystem/1", 0.10),
    # Per-request span tracing at the shipped default sampling rate
    # (1 in 64 misses, what --tail-report enables); budget is 5% over
    # the tracing-off run.
    ("BM_FullSystemReqTrace/64", "BM_FullSystem/1", 0.05),
    # Every miss traced: the bound is the post-run span assembly,
    # O(traced misses) by design (sort + one heap span per miss), so
    # on this short benchmark sim it legitimately costs tens of
    # percent.  The loose guard is a tripwire for accidental
    # quadratic blowups in assembly/attribution, not an overhead
    # promise -- the 5% promise is the /64 row above.
    ("BM_FullSystemReqTrace/1", "BM_FullSystem/1", 0.60),
)


def load(path):
    """Read {benchmark name: items/sec}, naming whatever is malformed.

    A raw KeyError here would point at this script rather than at the
    file that is missing a field, so every required key gets its own
    message instead.

    Runs made with --benchmark_repetitions produce one entry per
    repetition (same name) plus suffixed aggregate rows; the
    aggregates are skipped and repeated names reduced to their MEDIAN.
    The median, not the mean: one repetition landing in a lucky (or
    throttled) scheduler window on a shared runner shifts a mean of
    three by several percent -- enough to flip the tight same-run
    overhead guards -- while the median ignores it entirely.
    """
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" not in doc:
        sys.exit(f"error: {path}: no 'benchmarks' array "
                 f"(is this a BENCH_simperf.json?)")
    samples = {}
    for i, bench in enumerate(doc["benchmarks"]):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if name is None:
            sys.exit(f"error: {path}: benchmarks[{i}] has no 'name'")
        if "items_per_second" not in bench:
            sys.exit(f"error: {path}: benchmark '{name}' has no "
                     f"'items_per_second'")
        samples.setdefault(name, []).append(bench["items_per_second"])
    return {name: statistics.median(v) for name, v in samples.items()}


def check_baselines(baselines, fresh, threshold):
    """Guarded benchmarks vs their best baseline.  Returns failures."""
    failures = []
    guarded = sorted(
        {name for b in baselines.values() for name in b
         if name.startswith(GUARDED_PREFIXES)})
    for name in guarded:
        bases = {path: b[name] for path, b in baselines.items()
                 if name in b}
        if name not in fresh:
            # A guarded benchmark vanishing would otherwise pass the
            # guard silently; removing one on purpose means updating
            # the committed baseline in the same PR.
            print(f"FAILURE: guarded benchmark {name} is in a "
                  f"baseline but missing from the fresh run")
            failures.append(name)
            continue
        now = fresh[name]
        best_path, best = max(bases.items(), key=lambda kv: kv[1])
        ratio = now / best if best else float("inf")
        if ratio < 1.0 - threshold:
            failures.append(name)
            print(f"{name}: REGRESSION -- {now:.4g} items/s vs best "
                  f"baseline {best:.4g} items/s ({best_path}); "
                  f"{ratio:.1%} of baseline, allowed >= "
                  f"{1.0 - threshold:.0%}")
            for path, base in sorted(bases.items()):
                print(f"    {path}: {base:.4g} items/s "
                      f"({now / base if base else float('inf'):.1%})")
        else:
            print(f"{name}: {best:.4g} -> {now:.4g} items/s "
                  f"({ratio:.1%} of best of {len(bases)} baseline(s)) "
                  f"ok")
    return failures


def check_relative(fresh):
    """Same-run overhead guards.  Returns failures."""
    failures = []
    for name, ref, budget in RELATIVE_GUARDS:
        if name not in fresh or ref not in fresh:
            print(f"note: relative guard {name} vs {ref} skipped "
                  f"(benchmark missing from the fresh run)")
            continue
        now, base = fresh[name], fresh[ref]
        ratio = now / base if base else float("inf")
        if ratio < 1.0 - budget:
            failures.append(name)
            print(f"{name}: OVERHEAD -- {now:.4g} items/s is "
                  f"{1.0 - ratio:.1%} below {ref} ({base:.4g} "
                  f"items/s); budget is {budget:.0%}")
        else:
            print(f"{name}: {ratio:.1%} of {ref} "
                  f"(budget {1.0 - budget:.0%}) ok")
    return failures


def run_triage(fl_report, triage_baseline, triage_fresh):
    """Append fl_report's triage block to a failing run.  Best-effort:
    triage must never turn a clean failure report into a crash."""
    cmd = [fl_report,
           f"--baseline=baseline={triage_baseline}",
           f"--run=fresh={triage_fresh}",
           "--triage"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"note: fl_report triage unavailable: {e}")
        return
    if proc.returncode != 0:
        print(f"note: fl_report triage failed: "
              f"{proc.stderr.strip() or proc.stdout.strip()}")
        return
    print("\n-- fl_report triage (baseline vs fresh) --")
    print(proc.stdout.rstrip())


def main(argv):
    threshold = 0.20
    paths = []
    fl_report = None
    triage_baseline = None
    triage_fresh = None
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--fl-report="):
            fl_report = arg.split("=", 1)[1]
        elif arg.startswith("--triage-baseline="):
            triage_baseline = arg.split("=", 1)[1]
        elif arg.startswith("--triage-fresh="):
            triage_fresh = arg.split("=", 1)[1]
        else:
            paths.append(arg)
    if len(paths) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    baselines = {path: load(path) for path in paths[:-1]}
    fresh = load(paths[-1])

    failures = check_baselines(baselines, fresh, threshold)
    failures += check_relative(fresh)

    baseline_names = set()
    for b in baselines.values():
        baseline_names |= set(b)
    for name in sorted(set(fresh) - baseline_names):
        if name.startswith(GUARDED_PREFIXES):
            print(f"note: guarded benchmark {name} is new (not in any "
                  f"baseline yet); commit a refreshed baseline to "
                  f"guard it")
        else:
            print(f"note: {name} not in any baseline (unguarded)")

    if failures:
        if fl_report and triage_baseline and triage_fresh:
            run_triage(fl_report, triage_baseline, triage_fresh)
        print(f"\n{len(failures)} check(s) failed: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"\nno guarded benchmark regressed beyond {threshold:.0%} "
          f"and every overhead budget held")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
