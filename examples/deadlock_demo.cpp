/**
 * @file
 * Deadlock demo: seed a true cross-ownership deadlock with the
 * network's Fwd*Ack fault injection and let the hang watchdog catch
 * it.  Demonstrates the full incident pipeline from DESIGN.md section
 * 7.5: the watchdog detects that no core retires for a whole window,
 * builds the wait-for graph, names the deadlock cycle, prints the
 * stall dossier (with the flight-recorder tail), and the process
 * exits with code 4.
 *
 *   $ ./deadlock_demo [--watchdog-interval=N --blackbox-out=FILE]
 *   ... stall dossier on stdout ...
 *   $ echo $?
 *   4
 *
 * With `--watchdog-interval=0` there is no probe: the wedged machine's
 * event queue drains at once, and the run ends there as the same hang.
 *
 * With `--healthy` the fault injection is skipped: the same program
 * runs to completion, verifies, and exits 0 -- showing the workload
 * itself is correct and the deadlock really is the injected fault.
 * The dossier goes to stdout (stderr carries the abort diagnostics),
 * so two runs can be compared byte-for-byte for determinism.
 */

#include <iostream>

#include "harness/options.hh"
#include "harness/run.hh"
#include "workload/microbench.hh"

using namespace fenceless;

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv,
                          harness::Options::Machine |
                              harness::Options::Artifacts |
                              harness::Options::Profile |
                              harness::Options::Healthy);

    harness::SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.model = cpu::ConsistencyModel::TSO;
    // A short window keeps the demo snappy; the default (100k cycles)
    // is sized for full-length runs.
    cfg.watchdog_interval = 5000;
    cfg = opts.applyTo(cfg);

    workload::SeededDeadlock wl;
    if (!opts.healthy()) {
        // Drop the owner's Fwd*Ack for both cross-loaded blocks: the
        // two directory transactions wedge in their forward phase and
        // the cores deadlock waiting on each other's blocks.
        cfg.net.drop_fwd_acks_for = {wl.blockX(), wl.blockY()};
    }

    harness::Run run = harness::runWorkload(wl, cfg);
    if (!opts.writeArtifacts(*run.sys))
        return harness::exit_fatal;

    if (!run.ok()) {
        std::cerr << "error: " << run.error << "\n";
        if (run.hung) {
            // The run already printed the dossier to stderr; repeat
            // it on stdout so scripts can capture it separately.
            std::cout << run.sys->dossier();
            return harness::exit_hang;
        }
        run.sys->writeBlackboxTail(std::cerr);
        return harness::exit_postcondition;
    }
    std::cout << "healthy run completed in " << run.sys->runtimeCycles()
              << " cycles and verified (no deadlock without the "
                 "fault injection)\n";
    return harness::exit_ok;
}
