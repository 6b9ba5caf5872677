/**
 * @file
 * Lock scaling study: how spin locks, ticket locks and uncontended
 * (per-thread) locks scale with core count, with and without fence
 * speculation.  Shows where the mechanism helps (ordering stalls on
 * the critical path) and where it cannot (pure lock-handoff
 * serialization).
 *
 * The (lock, core-count) points are independent simulations, so they
 * run host-parallel through harness::SweepRunner (--jobs=N; output is
 * identical for any value).
 *
 *   $ ./lock_scaling [--jobs=N]
 */

#include <iostream>

#include "harness/exit_codes.hh"
#include "harness/options.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "workload/microbench.hh"

using namespace fenceless;

namespace
{

/** Baseline and speculative cycles of one (lock, cores) point. */
struct Point
{
    double base = 0;
    double spec = 0;
    std::string error;
    bool hung = false;
};

double
run(workload::Workload &wl, std::uint32_t cores, bool speculative,
    std::string &error, bool &hung)
{
    harness::SystemConfig cfg;
    cfg.num_cores = cores;
    cfg.model = cpu::ConsistencyModel::TSO;
    if (speculative)
        cfg.withSpeculation();

    isa::Program prog = wl.build(cores);
    harness::System sys(cfg, prog);
    if (!sys.run()) {
        hung = true;
        error = wl.name() + (sys.hung() ? " hung (watchdog abort)"
                                        : " did not terminate");
        return 0;
    }
    if (!wl.check(sys.memReader(), cores, error)) {
        error = "postcondition failed: " + error;
        return 0;
    }
    return static_cast<double>(sys.runtimeCycles());
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs);
    const std::uint32_t counts[] = {1, 2, 4, 8};
    const unsigned num_counts = 4;

    std::cout << "Lock-section throughput vs core count (TSO; cycles "
                 "per run,\nlower is better; IF = fence speculation "
                 "enabled)\n\n";

    struct Entry
    {
        const char *label;
        std::function<workload::WorkloadPtr()> make;
    };

    const Entry entries[] = {
        {"spin lock (contended)",
         [] { return std::make_unique<workload::SpinlockCrit>(); }},
        {"ticket lock (contended)",
         [] { return std::make_unique<workload::TicketLockCrit>(); }},
        {"per-thread locks + streaming stores",
         [] { return std::make_unique<workload::LocalLockStream>(); }},
    };

    std::vector<std::function<Point()>> tasks;
    for (const auto &entry : entries) {
        for (std::uint32_t c : counts) {
            auto make = entry.make;
            tasks.push_back([make, c]() -> Point {
                Point pt;
                auto wl_base = make();
                pt.base = run(*wl_base, c, false, pt.error,
                              pt.hung);
                if (!pt.error.empty())
                    return pt;
                auto wl_spec = make();
                pt.spec = run(*wl_spec, c, true, pt.error, pt.hung);
                return pt;
            });
        }
    }

    harness::SweepRunner runner(opts.jobs());
    auto points = runner.map(std::move(tasks));
    for (const auto &pt : points) {
        if (!pt.error.empty()) {
            std::cerr << "error: " << pt.error << "\n";
            return pt.hung ? harness::exit_hang
                           : harness::exit_postcondition;
        }
    }

    std::size_t idx = 0;
    for (const auto &entry : entries) {
        std::cout << "-- " << entry.label << " --\n";
        harness::Table table({"cores", "baseline", "IF", "speedup"});
        for (unsigned i = 0; i < num_counts; ++i) {
            const Point &pt = points[idx++];
            table.addRow({std::to_string(counts[i]),
                          harness::fmt(pt.base, 0),
                          harness::fmt(pt.spec, 0),
                          harness::fmt(pt.base / pt.spec)});
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "Contended locks are bound by coherence handoff "
                 "(speculation can't speed\nup the lock transfer "
                 "itself); uncontended locks with buffered stores "
                 "show\nthe ordering-stall win directly.\n";
    return 0;
}
