/**
 * @file
 * Cross-run analysis tests: the JSON parser, the loaders' schema
 * and taxonomy gates and group tolerance, differential waste
 * attribution, the report renderers' byte-for-byte determinism
 * against a committed golden, and round trips of the stats and
 * profile documents through their loaders.
 */

#include <array>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/diff.hh"
#include "analysis/json.hh"
#include "analysis/loader.hh"
#include "analysis/report.hh"
#include "base/stats.hh"
#include "base/stats_json.hh"
#include "sim/profiler.hh"
#include "tests/sim_test_util.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::analysis;

namespace
{

std::string
dataPath(const std::string &name)
{
    return std::string(FENCELESS_TEST_DATA_DIR) + "/" + name;
}

std::string
slurp(const std::string &path)
{
    std::string text, error;
    EXPECT_TRUE(readFile(path, text, error)) << error;
    return text;
}

/** Load the committed fixture pair the golden was generated from. */
std::vector<RunInput>
fixtureRuns()
{
    std::vector<RunInput> runs(2);
    std::string error;
    EXPECT_TRUE(loadStatsRun(slurp(dataPath("report_base.stats.json")),
                             "base", runs[0].stats, error))
        << error;
    EXPECT_TRUE(loadProfile(slurp(dataPath("report_base.prof.json")),
                            runs[0].profile, error))
        << error;
    runs[0].label = "base";
    runs[0].has_profile = true;
    EXPECT_TRUE(loadStatsRun(slurp(dataPath("report_cand.stats.json")),
                             "cand", runs[1].stats, error))
        << error;
    EXPECT_TRUE(loadProfile(slurp(dataPath("report_cand.prof.json")),
                            runs[1].profile, error))
        << error;
    runs[1].label = "cand";
    runs[1].has_profile = true;
    return runs;
}

} // namespace

// ---------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------

TEST(AnalysisJson, ParsesScalarsArraysObjects)
{
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(
        R"({"a": 1, "b": [true, false, null, -2.5], "c": {"d": "x"}})",
        doc, error))
        << error;
    EXPECT_EQ(doc["a"].asU64(), 1u);
    ASSERT_EQ(doc["b"].array().size(), 4u);
    EXPECT_TRUE(doc["b"].array()[0].asBool());
    EXPECT_TRUE(doc["b"].array()[2].isNull());
    EXPECT_DOUBLE_EQ(doc["b"].array()[3].asDouble(), -2.5);
    EXPECT_EQ(doc["c"]["d"].asString(), "x");
    // Missing members chain safely to the shared null.
    EXPECT_TRUE(doc["missing"]["deep"]["deeper"].isNull());
}

TEST(AnalysisJson, DecodesEscapes)
{
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(
        R"({"s": "a\"b\\c\nd\teA"})", doc, error))
        << error;
    EXPECT_EQ(doc["s"].asString(), "a\"b\\c\nd\teA");
}

TEST(AnalysisJson, ReportsErrorPosition)
{
    Json doc;
    std::string error;
    EXPECT_FALSE(Json::parse("{\"a\": 1,\n  \"b\" 2}", doc, error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("':'"), std::string::npos) << error;
    EXPECT_TRUE(doc.isNull());

    EXPECT_FALSE(Json::parse("{} trailing", doc, error));
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(AnalysisJson, DuplicateKeysLastWins)
{
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(R"({"k": 1, "k": 2})", doc, error));
    EXPECT_EQ(doc["k"].asU64(), 2u);
}

TEST(AnalysisJson, NegativeNumbersClampToZeroAsU64)
{
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(R"({"n": -7})", doc, error));
    EXPECT_EQ(doc["n"].asU64(), 0u);
    EXPECT_EQ(doc["n"].asI64(), -7);
}

// ---------------------------------------------------------------------
// Loaders: schema gate and tolerance
// ---------------------------------------------------------------------

TEST(ReportLoader, RefusesMismatchedStatsSchemaVersion)
{
    StatsRun run;
    std::string error;
    EXPECT_FALSE(loadStatsRun(
        R"({"schema_version": 99, "groups": {}})", "x", run, error));
    EXPECT_NE(error.find("99"), std::string::npos) << error;
    EXPECT_NE(error.find("refusing"), std::string::npos) << error;
}

TEST(ReportLoader, RefusesMissingSchemaVersion)
{
    StatsRun run;
    std::string error;
    EXPECT_FALSE(loadStatsRun(R"({"groups": {}})", "x", run, error));
    EXPECT_NE(error.find("schema_version"), std::string::npos)
        << error;

    prof::Profile profile;
    EXPECT_FALSE(loadProfile(R"({"pcs": []})", profile, error));
    EXPECT_NE(error.find("schema_version"), std::string::npos)
        << error;
}

TEST(ReportLoader, RefusesForeignBucketTaxonomy)
{
    const auto doc = [](const std::string &buckets) {
        return "{\"schema_version\": " +
               std::to_string(prof::profile_schema_version) +
               ", \"buckets\": [" + buckets + "], \"pcs\": []}";
    };
    prof::Profile profile;
    std::string error;
    EXPECT_TRUE(loadProfile(doc(R"("execute", "fence_stall", "sb_full", )"
                                R"("miss_wait", "rollback_discarded")"),
                            profile, error))
        << error;

    EXPECT_FALSE(loadProfile(doc(R"("fence_stall", "execute", "sb_full", )"
                                 R"("miss_wait", "rollback_discarded")"),
                             profile, error));
    EXPECT_NE(error.find("taxonomy"), std::string::npos) << error;

    error.clear();
    EXPECT_FALSE(loadProfile(doc(R"("execute", "fence_stall", "sb_full", )"
                                 R"("miss_wait", "rollback_discarded", )"
                                 R"("host_wait")"),
                             profile, error));
    EXPECT_NE(error.find("taxonomy"), std::string::npos) << error;
}

TEST(ReportLoader, LoadsFixtures)
{
    auto runs = fixtureRuns();
    const StatsRun &base = runs[0].stats;
    // The fixtures are schema v1 (no "p999"); the loader accepts every
    // version in [1, current] because newer layouts are additive.  They
    // also carry keys the loader no longer reads (a "host" section,
    // "parallel_sim" and "shards" in sim_mode), which are ignored.
    EXPECT_EQ(base.schema_version, 1);
    EXPECT_GE(statistics::stats_schema_version, base.schema_version);
    EXPECT_EQ(base.topology, "crossbar");
    EXPECT_EQ(base.dir_banks, 1u);
    EXPECT_EQ(runs[1].stats.dir_banks, 2u);
    EXPECT_DOUBLE_EQ(base.scalar("core_0", "core_0.instructions"),
                     1000.0);
    EXPECT_DOUBLE_EQ(base.maxOver("core_", "halt_tick"), 2000.0);
    EXPECT_DOUBLE_EQ(base.sumOver("spec_", "rollbacks"), 3.0);
    // Prefix lookup bridges monolithic and banked directory groups.
    EXPECT_DOUBLE_EQ(base.sumOver("l2dir", "gets"), 64.0);
    EXPECT_DOUBLE_EQ(runs[1].stats.sumOver("l2dir", "gets"),
                     34.0 + 30.0);
    // Units come from the self-describing schema block.
    ASSERT_TRUE(base.schema.count("network.msg_latency"));
    EXPECT_EQ(base.schema.at("network.msg_latency").unit, "cycles");
}

TEST(ReportLoader, ToleratesMissingGroups)
{
    auto runs = fixtureRuns();
    StatsDiff diff = diffStats(runs[0].stats, runs[1].stats, 10);
    EXPECT_EQ(diff.presence.added.size(), 2u);
    EXPECT_EQ(diff.presence.added[0], "l2dir.bank0");
    EXPECT_EQ(diff.presence.added[1], "l2dir.bank1");
    ASSERT_EQ(diff.presence.removed.size(), 1u);
    EXPECT_EQ(diff.presence.removed[0], "l2dir");
}

TEST(ReportLoader, SweepRowsOnePerLine)
{
    std::vector<Json> rows;
    std::string error;
    ASSERT_TRUE(loadSweepRows(
        "{\"cores\": 16, \"speedup\": 1.5}\n"
        "\n"
        "{\"cores\": 32, \"speedup\": 1.8}\n",
        rows, error))
        << error;
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1]["cores"].asU64(), 32u);

    rows.clear();
    EXPECT_FALSE(loadSweepRows("{\"a\": 1}\nnot json\n", rows, error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// Differential waste attribution
// ---------------------------------------------------------------------

TEST(ReportDiff, BucketTotalsAreExactIntegerSums)
{
    auto runs = fixtureRuns();
    ProfileDiff diff =
        diffProfiles(runs[0].profile, runs[1].profile, 10);
    using Totals = std::array<std::uint64_t, prof::num_buckets>;
    const Totals base = runs[0].profile.bucketTotals();
    const Totals cand = runs[1].profile.bucketTotals();
    EXPECT_EQ(base, (Totals{910, 1005, 20, 140, 10}));
    EXPECT_EQ(cand, (Totals{940, 1125, 20, 215, 40}));
    ASSERT_EQ(diff.buckets.size(), prof::num_buckets);
    for (std::size_t b = 0; b < prof::num_buckets; ++b) {
        EXPECT_EQ(diff.buckets[b].base, base[b]);
        EXPECT_EQ(diff.buckets[b].cand, cand[b]);
    }
    // Taxonomy order, exact counts summed over the fixtures' pcs.
    EXPECT_EQ(diff.buckets[0].bucket, "execute");
    EXPECT_EQ(diff.buckets[0].base, 910u);
    EXPECT_EQ(diff.buckets[0].cand, 940u);
    EXPECT_EQ(diff.buckets[1].bucket, "fence_stall");
    EXPECT_EQ(diff.buckets[1].base, 1005u);
    EXPECT_EQ(diff.buckets[1].cand, 1125u);
    EXPECT_EQ(diff.buckets[1].delta(), 120);
    EXPECT_EQ(diff.buckets[4].bucket, "rollback_discarded");
    EXPECT_EQ(diff.buckets[4].delta(), 30);
}

TEST(ReportDiff, RanksRegressedAndImprovedSymbols)
{
    auto runs = fixtureRuns();
    ProfileDiff diff =
        diffProfiles(runs[0].profile, runs[1].profile, 10);
    ASSERT_GE(diff.regressed.size(), 2u);
    EXPECT_EQ(diff.regressed[0].sym, "hot_loop");
    EXPECT_EQ(diff.regressed[0].delta(), 290);
    EXPECT_EQ(diff.regressed[1].sym, "new_sym");
    EXPECT_TRUE(diff.regressed[1].only_cand);
    ASSERT_GE(diff.improved.size(), 2u);
    EXPECT_EQ(diff.improved[0].sym, "lock_spin");
    EXPECT_EQ(diff.improved[0].delta(), -100);
    EXPECT_TRUE(diff.improved[1].only_base);
}

TEST(ReportDiff, FoldedDiffCoversUnionOfStacks)
{
    auto runs = fixtureRuns();
    ProfileDiff diff =
        diffProfiles(runs[0].profile, runs[1].profile, 10);
    // Folded rows carry the union of non-zero stacks of both runs,
    // diffing one-sided stacks against zero.
    std::map<std::string, FoldedDiffRow> by_stack;
    for (const FoldedDiffRow &r : diff.folded)
        by_stack[r.stack] = r;
    ASSERT_TRUE(by_stack.count("hot_loop;fence_stall"));
    EXPECT_EQ(by_stack["hot_loop;fence_stall"].base, 300u);
    EXPECT_EQ(by_stack["hot_loop;fence_stall"].cand, 500u);
    ASSERT_TRUE(by_stack.count("old_sym;fence_stall"));
    EXPECT_EQ(by_stack["old_sym;fence_stall"].cand, 0u);
    ASSERT_TRUE(by_stack.count("new_sym;miss_wait"));
    EXPECT_EQ(by_stack["new_sym;miss_wait"].base, 0u);
    // Sorted by stack for byte-stable --folded-diff output.
    for (std::size_t i = 1; i < diff.folded.size(); ++i)
        EXPECT_LT(diff.folded[i - 1].stack, diff.folded[i].stack);
}

TEST(ReportDiff, PercentileDeltasFromDistributions)
{
    auto runs = fixtureRuns();
    StatsDiff diff = diffStats(runs[0].stats, runs[1].stats, 10);
    bool saw_p99 = false;
    for (const StatDelta &d : diff.percentiles) {
        if (d.stat == "network.msg_latency" && d.field == "p99") {
            saw_p99 = true;
            EXPECT_DOUBLE_EQ(d.base, 16.0);
            EXPECT_DOUBLE_EQ(d.cand, 24.0);
            EXPECT_EQ(d.unit, "cycles");
        }
    }
    EXPECT_TRUE(saw_p99);
}

TEST(ReportDiff, SummaryAndScaling)
{
    auto runs = fixtureRuns();
    RunSummary s = summarize(runs[0]);
    EXPECT_EQ(s.cores, 2u);
    EXPECT_DOUBLE_EQ(s.cycles, 2000.0);
    EXPECT_DOUBLE_EQ(s.insts, 2000.0);
    EXPECT_DOUBLE_EQ(s.rollbacks, 3.0);

    ScalingTable table = buildScaling(runs, "topology");
    ASSERT_EQ(table.rows.size(), 2u);
    EXPECT_EQ(table.rows[0].axis_label, "crossbar");
    EXPECT_EQ(table.rows[1].axis_label, "mesh");
    EXPECT_DOUBLE_EQ(table.rows[0].speedup, 1.0);
    EXPECT_LT(table.rows[1].speedup, 1.0);
}

// ---------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------

TEST(ReportRender, MarkdownMatchesGoldenByteForByte)
{
    // The golden was produced by fl_report with the same inputs and
    // settings; any rendering change must update it deliberately.
    ReportModel model =
        buildReport(fixtureRuns(), {}, "topology", 10);
    std::ostringstream os;
    writeMarkdown(os, model);
    EXPECT_EQ(os.str(), slurp(dataPath("report_golden.md")));
}

TEST(ReportRender, OutputIsDeterministic)
{
    ReportModel a = buildReport(fixtureRuns(), {}, "topology", 10);
    ReportModel b = buildReport(fixtureRuns(), {}, "topology", 10);
    std::ostringstream md_a, md_b, html_a, html_b, tri_a, tri_b;
    writeMarkdown(md_a, a);
    writeMarkdown(md_b, b);
    writeHtml(html_a, a);
    writeHtml(html_b, b);
    writeTriage(tri_a, a);
    writeTriage(tri_b, b);
    EXPECT_EQ(md_a.str(), md_b.str());
    EXPECT_EQ(html_a.str(), html_b.str());
    EXPECT_EQ(tri_a.str(), tri_b.str());
}

TEST(ReportRender, TriageNamesWasteAndHotLinks)
{
    ReportModel model =
        buildReport(fixtureRuns(), {}, "topology", 10);
    std::ostringstream os;
    writeTriage(os, model);
    const std::string out = os.str();
    EXPECT_NE(out.find("triage: waste fence_stall 1005 -> 1125 "
                       "(+120)"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("triage: waste total_wasted 1175 -> 1400 "
                       "(+225)"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("triage: hot-link msgs 0 -> 40"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("triage: regressed-symbol hot_loop +290"),
              std::string::npos)
        << out;
}

TEST(ReportRender, HtmlIsSelfContained)
{
    ReportModel model =
        buildReport(fixtureRuns(), {}, "topology", 10);
    std::ostringstream os;
    writeHtml(os, model);
    const std::string html = os.str();
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_EQ(html.find("<script"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    // The flamegraph bars made it in.
    EXPECT_NE(html.find("class=\"flame\""), std::string::npos);
    EXPECT_NE(html.find("hot_loop;fence_stall"), std::string::npos);
}

TEST(ReportRender, FoldedDiffIsDifffoldedFormat)
{
    ReportModel model =
        buildReport(fixtureRuns(), {}, "topology", 10);
    std::ostringstream os;
    writeFoldedDiff(os, model);
    EXPECT_NE(os.str().find("hot_loop;fence_stall 300 500\n"),
              std::string::npos)
        << os.str();
}

// ---------------------------------------------------------------------
// Stats-json self-description (the registry side of the contract)
// ---------------------------------------------------------------------

TEST(ReportSchema, RegistryJsonRoundTripsThroughLoader)
{
    statistics::StatRegistry registry;
    auto &group = registry.createGroup("core_0");
    group.addScalar("instructions", "committed instructions") += 7;
    group.addScalar("halt_tick", "tick at halt") += 42;
    auto &lat = group.addDistribution("load_latency", "load latency");
    lat.sample(10);
    lat.sample(20);

    std::ostringstream os;
    statistics::printJson(os, registry);

    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(os.str(), doc, error)) << error;
    EXPECT_EQ(doc["schema_version"].asI64(),
              statistics::stats_schema_version);
    const Json &schema = doc["schema"];
    EXPECT_EQ(schema["core_0.instructions"]["unit"].asString(),
              "instructions");
    EXPECT_EQ(schema["core_0.halt_tick"]["unit"].asString(),
              "cycles");
    EXPECT_EQ(schema["core_0.load_latency"]["unit"].asString(),
              "cycles");
    EXPECT_EQ(schema["core_0.load_latency"]["kind"].asString(),
              "distribution");
    EXPECT_EQ(schema["core_0.instructions"]["desc"].asString(),
              "committed instructions");
}

// ---------------------------------------------------------------------
// Profile document: emitter and loader agree
// ---------------------------------------------------------------------

TEST(ReportSchema, ProfileJsonRoundTripsThroughLoader)
{
    // A scoped profile, so its symbols carry the ';' sweep binaries'
    // symbols do.
    harness::SystemConfig cfg = test::testConfig(4);
    cfg.withSpeculation();
    cfg.profile = true;
    workload::SpinlockCrit::Params p;
    p.iters = 32;
    workload::SpinlockCrit wl(p);
    harness::Run run = harness::runWorkload(wl, cfg);
    ASSERT_TRUE(run.ok()) << run.error;
    const prof::Profile written = run.sys->profile("spin/IF-TSO");
    ASSERT_FALSE(written.pcs.empty());

    std::ostringstream os;
    written.writeJson(os);
    prof::Profile read;
    std::string error;
    ASSERT_TRUE(loadProfile(os.str(), read, error)) << error;

    ASSERT_EQ(read.pcs.size(), written.pcs.size());
    for (const auto &[sym, row] : written.pcs) {
        SCOPED_TRACE(sym);
        auto it = read.pcs.find(sym);
        ASSERT_NE(it, read.pcs.end());
        EXPECT_EQ(it->second.pc, row.pc);
        EXPECT_EQ(it->second.execs, row.execs);
        EXPECT_EQ(it->second.cycles, row.cycles);
    }
}
