/**
 * @file
 * F2 (headline): fence speculation makes memory ordering performance-
 * transparent.  Normalized runtime of every workload under each
 * consistency model, baseline vs. speculative (on-demand,
 * block-granularity), all normalized to baseline RMO.
 *
 * Shape to reproduce: IF-SC closes most of the SC <-> RMO gap; IF-TSO
 * removes the fence/atomic drain cost; IF-RMO ~= RMO (little left to
 * win).
 */

#include <cmath>
#include <iostream>

#include "bench/bench_common.hh"

using namespace fenceless;
using namespace fenceless::bench;

namespace
{

/** One workload's six normalized runtimes, for the geomean row. */
struct WorkloadNorms
{
    std::string name;
    double norm[6] = {};
    prof::Profile profile; //!< merged across the six runs (if enabled)
    std::string error;
    bool hung = false;
};

/** Scope prefix for one run's profile, e.g. "spinlock/IF-TSO". */
std::string
profileScope(const workload::Workload &wl, cpu::ConsistencyModel model,
             bool speculative)
{
    return wl.name() + "/" + (speculative ? "IF-" : "") +
           cpu::consistencyModelName(model);
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs |
                                      harness::Options::Profile);
    banner("F2", "fence speculation vs baseline (normalized runtime, "
                 "baseline RMO = 1.00)");

    harness::Table table({"workload", "SC", "IF-SC", "TSO", "IF-TSO",
                          "RMO", "IF-RMO"});

    const bool profiling = opts.profiling();
    std::vector<std::function<WorkloadNorms()>> tasks;
    for (auto &wl : sharedSuite(2)) {
        tasks.push_back([wl, profiling]() -> WorkloadNorms {
            WorkloadNorms out;
            out.name = wl->name();
            double cycles[6] = {};
            double rmo_base = 0;
            int i = 0;
            for (auto model : {cpu::ConsistencyModel::SC,
                               cpu::ConsistencyModel::TSO,
                               cpu::ConsistencyModel::RMO}) {
                for (bool speculative : {false, true}) {
                    harness::SystemConfig cfg = defaultConfig();
                    cfg.model = model;
                    if (speculative)
                        cfg.withSpeculation();
                    cfg.profile = profiling;
                    RunOutcome r = measure(
                        *wl, cfg,
                        profileScope(*wl, model, speculative));
                    if (!r) {
                        out.error = r.error;
                        out.hung = r.hung;
                        return out;
                    }
                    out.profile.merge(r.profile);
                    cycles[i] = static_cast<double>(r.result.cycles);
                    if (model == cpu::ConsistencyModel::RMO &&
                        !speculative) {
                        rmo_base = cycles[i];
                    }
                    ++i;
                }
            }
            for (int c = 0; c < 6; ++c)
                out.norm[c] = cycles[c] / rmo_base;
            return out;
        });
    }

    auto results = harness::SweepRunner(opts.jobs()).map(std::move(tasks));
    if (int code = sweepFailed(results))
        return code;

    double geo[6] = {1, 1, 1, 1, 1, 1};
    for (const auto &w : results) {
        std::vector<std::string> row{w.name};
        // column order: SC, IF-SC, TSO, IF-TSO, RMO, IF-RMO
        for (int c = 0; c < 6; ++c) {
            row.push_back(harness::fmt(w.norm[c]));
            geo[c] *= w.norm[c];
        }
        table.addRow(std::move(row));
    }

    std::vector<std::string> gmean{"geomean"};
    for (int c = 0; c < 6; ++c)
        gmean.push_back(harness::fmt(
            std::pow(geo[c], 1.0 / results.size())));
    table.addRow(std::move(gmean));

    table.print(std::cout);
    std::cout << "\nShape to reproduce: IF-SC << SC (most of the "
                 "SC->RMO gap closes);\nIF-TSO <= TSO (fence/atomic "
                 "drains vanish); IF-RMO ~= RMO.\n";

    if (profiling) {
        // Merge in submission order on the main thread: the combined
        // profile is byte-identical for every --jobs value.
        prof::Profile merged;
        for (const auto &w : results)
            merged.merge(w.profile);
        if (!opts.writeProfile(merged))
            return 1;
    }
    return 0;
}
