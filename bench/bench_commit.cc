/**
 * @file
 * F8: commit cost.  The block-granularity design commits locally (flash
 * clear, zero extra latency).  Arbitration-based designs pay a global
 * round per commit; we model that as an added per-commit latency and
 * sweep it.  The barrier- and queue-structured workloads commit often,
 * so arbitration cost shows up directly in runtime.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::bench;

namespace
{

using Make = std::function<workload::WorkloadPtr()>;

/** One (workload, arbitration-latency) point. */
struct Meas : harness::RunError
{
    double cycles = 0;
    std::uint64_t commits = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs);
    banner("F8", "runtime vs per-commit arbitration latency "
                 "(on-demand SC, normalized to local flash commit)");

    const Cycles arb[] = {0, 10, 25, 50, 100, 200};
    const unsigned num_arbs = 6;

    std::vector<std::string> headers{"workload"};
    for (Cycles a : arb)
        headers.push_back(a == 0 ? std::string("local")
                                 : std::string("+")
                                       .append(std::to_string(a))
                                       .append("cy"));
    headers.push_back("commits");
    harness::Table table(std::move(headers));

    const Make entries[] = {
        [] { return std::make_unique<workload::LocalLockStream>(); },
        [] { return std::make_unique<workload::BarrierPhase>(); },
        [] { return std::make_unique<workload::TicketLockCrit>(); },
    };

    // One task per (workload, arbitration latency) point.
    std::vector<std::function<Meas()>> tasks;
    for (const Make &make : entries) {
        for (Cycles a : arb) {
            tasks.push_back([make, a]() -> Meas {
                Meas out;
                harness::SystemConfig cfg = defaultConfig();
                cfg.model = cpu::ConsistencyModel::SC;
                cfg.withSpeculation();
                cfg.spec.commit_arb_latency = a;
                auto wl = make();
                harness::Run run = harness::runWorkload(*wl, cfg);
                if (!run.ok())
                    return {run};
                out.cycles = static_cast<double>(run.sys->runtimeCycles());
                out.commits = run.sys->totalCommits();
                return out;
            });
        }
    }

    auto results = harness::SweepRunner(opts.jobs()).map(std::move(tasks));
    if (int code = harness::sweepFailed(results))
        return code;

    std::size_t idx = 0;
    for (const Make &make : entries) {
        std::vector<std::string> row{make()->name()};
        const double local = results[idx].cycles;
        const std::uint64_t commits = results[idx].commits;
        for (unsigned i = 0; i < num_arbs; ++i)
            row.push_back(harness::fmt(results[idx++].cycles / local));
        row.push_back(std::to_string(commits));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nShape: runtime grows with arbitration latency "
                 "(and with commit\nfrequency); the local flash commit "
                 "avoids the whole axis.\n";
    return 0;
}
