/**
 * @file
 * Speculation tuning: sweep the controller's knobs -- mode, overflow
 * policy, commit arbitration latency, backoff cap -- on one workload
 * and print runtime plus the full speculation statistics.  The place
 * to start when adapting the mechanism to a new workload.
 *
 * Each variant is an independent simulation, so the sweep runs
 * host-parallel through harness::SweepRunner (--jobs=N; output is
 * identical for any value).
 *
 *   $ ./speculation_tuning [--jobs=N]
 */

#include <iostream>

#include "harness/options.hh"
#include "harness/run.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "workload/kernels.hh"

using namespace fenceless;

namespace
{

struct Variant
{
    std::string label;
    spec::SpecController::Params params;
};

/** One rendered table row, or the error that prevented it. */
struct Row : harness::RunError
{
    std::vector<std::string> cells{};
};

Row
runVariant(const Variant &variant,
           const workload::IrregularUpdate::Params &wp)
{
    harness::SystemConfig cfg;
    cfg.num_cores = 8;
    cfg.model = cpu::ConsistencyModel::SC;
    cfg.spec = variant.params;

    workload::IrregularUpdate wl(wp);
    harness::Run run = harness::runWorkload(wl, cfg);
    if (!run.ok()) {
        run.error = variant.label + ": " + run.error;
        return {run};
    }
    harness::System &sys = *run.sys;

    std::uint64_t epochs = 0, commits = 0, rollbacks = 0,
                  discarded = 0;
    double epoch_insts = 0;
    unsigned with_ctrl = 0;
    for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
        auto *ctrl = sys.specController(c);
        if (!ctrl)
            continue;
        ++with_ctrl;
        epochs += ctrl->epochsStarted();
        commits += ctrl->commits();
        rollbacks += ctrl->rollbacks();
        discarded += ctrl->statGroup().scalarCount("discarded_insts");
        const auto *d = dynamic_cast<const
            statistics::Distribution *>(
            ctrl->statGroup().find("epoch_insts"));
        epoch_insts += d ? d->mean() : 0;
    }
    return {{},
            {variant.label,
             harness::fmt(static_cast<double>(sys.runtimeCycles()), 0),
             std::to_string(epochs), std::to_string(commits),
             std::to_string(rollbacks), std::to_string(discarded),
             with_ctrl ? harness::fmt(epoch_insts / with_ctrl, 1)
                       : "-"}};
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs);

    workload::IrregularUpdate::Params wp;
    wp.updates = 512;
    wp.bins = 16; // moderately contended

    std::vector<Variant> variants;
    {
        Variant v{"baseline (no speculation)", {}};
        variants.push_back(v);
    }
    {
        Variant v{"on-demand", {}};
        v.params.mode = spec::SpecMode::OnDemand;
        variants.push_back(v);
    }
    {
        Variant v{"on-demand, overflow=rollback", {}};
        v.params.mode = spec::SpecMode::OnDemand;
        v.params.overflow = spec::OverflowPolicy::Rollback;
        variants.push_back(v);
    }
    {
        Variant v{"on-demand, commit-arb=50cy", {}};
        v.params.mode = spec::SpecMode::OnDemand;
        v.params.commit_arb_latency = 50;
        variants.push_back(v);
    }
    {
        Variant v{"on-demand, no backoff cap growth", {}};
        v.params.mode = spec::SpecMode::OnDemand;
        v.params.max_cooldown = 1;
        variants.push_back(v);
    }
    {
        Variant v{"continuous (>=128 insts/epoch)", {}};
        v.params.mode = spec::SpecMode::Continuous;
        v.params.min_epoch_insts = 128;
        variants.push_back(v);
    }
    {
        Variant v{"continuous (>=1024 insts/epoch)", {}};
        v.params.mode = spec::SpecMode::Continuous;
        v.params.min_epoch_insts = 1024;
        variants.push_back(v);
    }

    std::cout << "irregular-update (8 cores, SC): speculation knob "
                 "sweep\n\n";
    harness::Table table({"variant", "cycles", "epochs", "commits",
                          "rollbacks", "discarded", "mean epoch"});

    std::vector<std::function<Row()>> tasks;
    for (const auto &variant : variants)
        tasks.push_back([variant, wp] { return runVariant(variant, wp); });

    harness::SweepRunner runner(opts.jobs());
    auto rows = runner.map(std::move(tasks));
    if (int code = harness::sweepFailed(rows))
        return code;
    for (auto &row : rows)
        table.addRow(std::move(row.cells));
    table.print(std::cout);

    std::cout << "\nReading the table: epochs == commits + rollbacks; "
                 "'discarded' counts\nwrong-path instructions thrown "
                 "away; longer epochs mean fewer commits\nbut bigger "
                 "rollback windows.\n";
    return 0;
}
