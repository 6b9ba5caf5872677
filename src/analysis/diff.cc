#include "analysis/diff.hh"

#include <algorithm>
#include <cmath>
#include <set>

namespace fenceless::analysis
{

namespace
{

/** Deterministic ranking: |value| descending, key ascending. */
template <typename Row, typename ValueOf>
void
rankAbsDesc(std::vector<Row> &rows, ValueOf value_of)
{
    std::sort(rows.begin(), rows.end(),
              [&](const Row &a, const Row &b) {
                  const double va = std::fabs(value_of(a));
                  const double vb = std::fabs(value_of(b));
                  if (va != vb)
                      return va > vb;
                  return a < b;
              });
}

} // namespace

bool
operator<(const PcDelta &a, const PcDelta &b)
{
    return a.sym < b.sym;
}

bool
operator<(const StatDelta &a, const StatDelta &b)
{
    if (a.stat != b.stat)
        return a.stat < b.stat;
    return a.field < b.field;
}

ProfileDiff
diffProfiles(const ProfileRun &base, const ProfileRun &cand,
             std::size_t top_n)
{
    ProfileDiff out;

    // Whole-run bucket totals: exact integer sums over the per-PC
    // rows, so they equal each run's own --waste-report totals.
    const auto base_totals = base.bucketTotals();
    const auto cand_totals = cand.bucketTotals();
    const std::vector<std::string> &taxonomy =
        !base.buckets.empty() ? base.buckets : cand.buckets;
    std::set<std::string> seen;
    for (const std::string &b : taxonomy) {
        BucketDelta d{b, 0, 0};
        auto bit = base_totals.find(b);
        if (bit != base_totals.end())
            d.base = bit->second;
        auto cit = cand_totals.find(b);
        if (cit != cand_totals.end())
            d.cand = cit->second;
        out.buckets.push_back(d);
        seen.insert(b);
    }
    for (const auto &[b, total] : cand_totals) {
        if (seen.count(b))
            continue;
        BucketDelta d{b, 0, total};
        auto bit = base_totals.find(b);
        if (bit != base_totals.end())
            d.base = bit->second;
        out.buckets.push_back(d);
    }

    // Per-symbol deltas over the union of symbols; a symbol present
    // on only one side diffs against zero rather than erroring.
    std::vector<PcDelta> all;
    auto bi = base.pcs.begin();
    auto ci = cand.pcs.begin();
    while (bi != base.pcs.end() || ci != cand.pcs.end()) {
        PcDelta d;
        if (ci == cand.pcs.end() ||
            (bi != base.pcs.end() && bi->first < ci->first)) {
            d.sym = bi->first;
            d.base_wasted = bi->second.wasted();
            d.base_total = bi->second.total();
            d.only_base = true;
            ++bi;
        } else if (bi == base.pcs.end() || ci->first < bi->first) {
            d.sym = ci->first;
            d.cand_wasted = ci->second.wasted();
            d.cand_total = ci->second.total();
            d.only_cand = true;
            ++ci;
        } else {
            d.sym = bi->first;
            d.base_wasted = bi->second.wasted();
            d.base_total = bi->second.total();
            d.cand_wasted = ci->second.wasted();
            d.cand_total = ci->second.total();
            ++bi;
            ++ci;
        }
        all.push_back(std::move(d));
    }
    for (const PcDelta &d : all) {
        if (d.delta() > 0)
            out.regressed.push_back(d);
        else if (d.delta() < 0)
            out.improved.push_back(d);
    }
    rankAbsDesc(out.regressed,
                [](const PcDelta &d) { return double(d.delta()); });
    rankAbsDesc(out.improved,
                [](const PcDelta &d) { return double(d.delta()); });
    if (out.regressed.size() > top_n)
        out.regressed.resize(top_n);
    if (out.improved.size() > top_n)
        out.improved.resize(top_n);

    // Folded flamegraph diff ("sym;bucket base cand"): the union of
    // stacks of both runs, in sorted order.  Zero-both stacks cannot
    // occur (writers skip zero rows) but are filtered anyway.
    std::map<std::string, FoldedDiffRow> folded;
    for (const auto &[sym, row] : base.pcs) {
        for (const auto &[bucket, n] : row.cycles) {
            if (!n)
                continue;
            FoldedDiffRow &fr = folded[sym + ";" + bucket];
            fr.base = n;
        }
    }
    for (const auto &[sym, row] : cand.pcs) {
        for (const auto &[bucket, n] : row.cycles) {
            if (!n)
                continue;
            FoldedDiffRow &fr = folded[sym + ";" + bucket];
            fr.cand = n;
        }
    }
    for (auto &[stack, row] : folded) {
        row.stack = stack;
        out.folded.push_back(std::move(row));
    }
    return out;
}

double
StatDelta::rel() const
{
    if (base != 0.0)
        return (cand - base) / std::fabs(base);
    if (cand == 0.0)
        return 0.0;
    // Appeared from zero: rank above any finite relative change but
    // keep the value finite so sorting stays total.
    return cand > 0.0 ? 1e9 : -1e9;
}

StatsDiff
diffStats(const StatsRun &base, const StatsRun &cand, std::size_t top_n)
{
    StatsDiff out;

    for (const auto &[name, stats] : cand.groups) {
        if (!base.groups.count(name))
            out.presence.added.push_back(name);
    }
    for (const auto &[name, stats] : base.groups) {
        if (!cand.groups.count(name))
            out.presence.removed.push_back(name);
    }

    const auto unitOf = [&](const std::string &stat) -> std::string {
        auto cit = cand.schema.find(stat);
        if (cit != cand.schema.end())
            return cit->second.unit;
        auto bit = base.schema.find(stat);
        return bit != base.schema.end() ? bit->second.unit : "";
    };

    for (const auto &[gname, gstats] : base.groups) {
        auto cg = cand.groups.find(gname);
        if (cg == cand.groups.end())
            continue;
        for (const auto &[sname, sval] : gstats) {
            auto cs = cg->second.find(sname);
            if (cs == cg->second.end())
                continue;
            if (sval.kind == "distribution") {
                for (const char *field :
                     {"mean", "p50", "p95", "p99", "p999"}) {
                    StatDelta d;
                    d.group = gname;
                    d.stat = sname;
                    d.field = field;
                    d.unit = unitOf(sname);
                    d.base = sval.field(field);
                    d.cand = cs->second.field(field);
                    if (d.base != d.cand)
                        out.percentiles.push_back(std::move(d));
                }
                continue;
            }
            StatDelta d;
            d.group = gname;
            d.stat = sname;
            d.field = "value";
            d.unit = unitOf(sname);
            d.base = sval.primary();
            d.cand = cs->second.primary();
            if (d.base != d.cand)
                out.top.push_back(std::move(d));
        }
    }
    rankAbsDesc(out.top, [](const StatDelta &d) { return d.rel(); });
    rankAbsDesc(out.percentiles,
                [](const StatDelta &d) { return d.rel(); });
    if (out.top.size() > top_n)
        out.top.resize(top_n);
    if (out.percentiles.size() > top_n)
        out.percentiles.resize(top_n);
    return out;
}

namespace
{

double
imbalance(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0, max = 0.0;
    for (double v : values) {
        sum += v;
        max = std::max(max, v);
    }
    if (sum <= 0.0)
        return 0.0;
    return max / (sum / static_cast<double>(values.size()));
}

} // namespace

RunSummary
summarize(const RunInput &run)
{
    const StatsRun &s = run.stats;
    RunSummary out;
    out.label = run.label;
    out.topology = s.topology;
    out.dir_banks = s.dir_banks;
    out.cores =
        static_cast<std::uint32_t>(s.countGroups("core_"));

    out.cycles = s.maxOver("core_", "halt_tick");
    std::vector<double> per_core;
    for (const auto &[gname, gstats] : s.groups) {
        if (gname.compare(0, 5, "core_") != 0)
            continue;
        auto it = gstats.find(gname + ".instructions");
        if (it != gstats.end())
            per_core.push_back(it->second.primary());
    }
    for (double v : per_core)
        out.insts += v;
    out.core_imbalance = imbalance(per_core);
    out.throughput = out.cycles > 0.0 ? out.insts / out.cycles : 0.0;
    out.rollbacks = s.sumOver("spec_", "rollbacks");

    out.msgs = s.scalar("network", "network.msgs");
    out.hops = s.scalar("network", "network.hops");
    out.links_used = s.scalar("network", "network.links_used");
    out.hot_link_msgs = s.scalar("network", "network.hot_link_msgs");
    out.hot_link_busy = s.scalar("network", "network.hot_link_busy");

    if (run.has_profile)
        out.waste = run.profile.bucketTotals();
    return out;
}

ScalingTable
buildScaling(const std::vector<RunInput> &runs, const std::string &axis)
{
    ScalingTable table;
    table.axis = axis;
    for (const RunInput &run : runs) {
        ScalingRow row;
        row.summary = summarize(run);
        if (axis == "cores") {
            row.axis_value = row.summary.cores;
        } else if (axis == "dir_banks") {
            row.axis_value = row.summary.dir_banks;
        } else {
            row.axis_value = 0.0; // categorical (topology, label)
        }
        if (axis == "topology") {
            row.axis_label = row.summary.topology.empty()
                                 ? row.summary.label
                                 : row.summary.topology;
        } else if (row.axis_value > 0.0) {
            std::int64_t iv =
                static_cast<std::int64_t>(row.axis_value);
            row.axis_label = std::to_string(iv);
        } else {
            row.axis_label = row.summary.label;
        }
        table.rows.push_back(std::move(row));
    }
    if (table.rows.empty())
        return table;
    const ScalingRow &first = table.rows.front();
    for (ScalingRow &row : table.rows) {
        if (first.summary.throughput > 0.0)
            row.speedup =
                row.summary.throughput / first.summary.throughput;
        const double growth = first.axis_value > 0.0
                                  ? row.axis_value / first.axis_value
                                  : 0.0;
        row.efficiency =
            growth > 0.0 ? row.speedup / growth : row.speedup;
    }
    return table;
}

} // namespace fenceless::analysis
