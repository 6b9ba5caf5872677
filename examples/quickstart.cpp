/**
 * @file
 * Quickstart: build a 4-core system, run a lock + streaming-store
 * workload under a baseline model and under the same model with fence
 * speculation, and compare.
 *
 *   $ ./quickstart [--cores=N --model=sc|tso|rmo --scale=K --csv]
 *
 * Observability quick-look (see DESIGN.md section 7.2): add
 * `--trace-out=run.json` for a Chrome trace-event timeline of the
 * speculative run (open in ui.perfetto.dev) and/or
 * `--stats-json=stats.json [--stats-interval=N]` for the machine-
 * readable stat registry.  Waste attribution (DESIGN.md section 7.4):
 * `--waste-report` prints the top-N table of wasted cycles by
 * instruction, contended cache lines and rollback causes for the
 * speculative run; `--profile-out=profile.json` writes the full
 * profile (plus profile.json.folded flamegraph stacks).
 */

#include <iostream>

#include "harness/options.hh"
#include "harness/run.hh"
#include "harness/table.hh"
#include "workload/microbench.hh"

using namespace fenceless;

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv,
                          harness::Options::Machine |
                              harness::Options::Artifacts |
                              harness::Options::Profile |
                              harness::Options::ScaleCsv);

    // 1. Describe the machine (tweak with --cores, --model, ...).
    harness::SystemConfig cfg;
    cfg.num_cores = 4;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg = opts.applyTo(cfg);

    // 2. Pick a workload: per-thread locks around private counters,
    // with streaming stores keeping the store buffer busy -- the
    // mostly-uncontended pattern where ordering stalls dominate.
    workload::LocalLockStream::Params params;
    params.iters = 128ULL * opts.scale();
    workload::LocalLockStream wl(params);

    harness::Table table({"configuration", "cycles", "instructions",
                          "IPC", "commits", "rollbacks"});

    for (bool speculative : {false, true}) {
        harness::SystemConfig run_cfg = cfg;
        if (speculative)
            run_cfg.withSpeculation();

        // 3. Build and run the system, then verify the parallel
        // program actually worked.  A hang exits with code 4 (the
        // run has already printed its stall dossier); a failed
        // postcondition exits with code 3 and prints the flight-
        // recorder tail: the last events before the bad outcome.
        harness::Run run = harness::runWorkload(wl, run_cfg);
        if (!run.ok()) {
            std::cerr << "error: " << run.error << "\n";
            if (run.hung)
                return harness::exit_hang;
            run.sys->writeBlackboxTail(std::cerr);
            return harness::exit_postcondition;
        }
        const harness::System &sys = *run.sys;

        // 4. The speculative run is the interesting timeline: write
        // any requested --trace-out / --stats-json artefacts from it.
        if (speculative && !opts.writeArtifacts(sys))
            return 1;

        const double cycles =
            static_cast<double>(sys.runtimeCycles());
        const double insts =
            static_cast<double>(sys.totalInstructions());
        const std::string label =
            std::string(cpu::consistencyModelName(run_cfg.model))
            + (speculative ? " + fence speculation" : " baseline");
        table.addRow({label,
                      harness::fmt(cycles, 0), harness::fmt(insts, 0),
                      harness::fmt(insts / cycles, 3),
                      std::to_string(sys.totalCommits()),
                      std::to_string(sys.totalRollbacks())});
    }

    std::cout << "\nlocal-locks, " << cfg.num_cores << " cores, "
              << params.iters << " lock sections/core\n\n";
    if (opts.csv())
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\nFence speculation removes the ordering stalls at "
                 "the lock atomics\n(which must otherwise wait for the "
                 "streaming stores to drain); run the\nbench_* "
                 "binaries for the full evaluation.\n";
    return 0;
}
