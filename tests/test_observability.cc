/**
 * @file
 * Observability tests: the --trace flag vocabulary, the structured
 * TraceSink (recording, capping, aux-name tables, Chrome trace-event
 * export) and the System-level plumbing (per-system sinks,
 * request-lifetime events, periodic stat snapshots, the --stats-json
 * document).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "sim/trace_sink.hh"
#include "tests/sim_test_util.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::test;

namespace
{

/** Count non-overlapping occurrences of @p needle in @p s. */
std::size_t
countOccurrences(const std::string &s, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = s.find(needle); pos != std::string::npos;
         pos = s.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/** Minimal structural JSON check: balanced braces and brackets. */
void
expectBalancedJson(const std::string &json)
{
    long braces = 0, brackets = 0;
    bool in_string = false, escaped = false;
    for (char c : json) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
            continue;
        }
        if (c == '"') {
            in_string = !in_string;
            continue;
        }
        if (in_string)
            continue;
        if (c == '{')
            ++braces;
        if (c == '}')
            --braces;
        if (c == '[')
            ++brackets;
        if (c == ']')
            --brackets;
        ASSERT_GE(braces, 0);
        ASSERT_GE(brackets, 0);
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

/** Run the quickstart workload with the given observability config. */
std::unique_ptr<harness::System>
runTracedSystem(std::uint32_t trace_mask, Tick stats_interval = 0)
{
    harness::SystemConfig cfg = testConfig(2);
    cfg.withSpeculation();
    cfg.trace_mask = trace_mask;
    cfg.stats_interval = stats_interval;
    workload::LocalLockStream::Params params;
    params.iters = 16;
    workload::LocalLockStream wl(params);
    isa::Program prog = wl.build(cfg.num_cores);
    auto sys = std::make_unique<harness::System>(cfg, prog);
    EXPECT_TRUE(sys->run());
    return sys;
}

} // namespace

TEST(Trace, ParseFlags)
{
    using trace::Flag;
    std::uint32_t mask = 0;
    std::string error;
    EXPECT_TRUE(trace::parseFlags("net", mask, error));
    EXPECT_EQ(mask, static_cast<std::uint32_t>(Flag::Net));
    EXPECT_TRUE(trace::parseFlags("core,spec", mask, error));
    EXPECT_EQ(mask, static_cast<std::uint32_t>(Flag::Core) |
                        static_cast<std::uint32_t>(Flag::Spec));
    EXPECT_TRUE(trace::parseFlags("all", mask, error));
    EXPECT_EQ(mask, ~0u);
    EXPECT_TRUE(trace::parseFlags("", mask, error));
    EXPECT_EQ(mask, 0u);
}

TEST(Trace, ParseFlagsReportsUnknownNames)
{
    std::uint32_t mask = 0xdead;
    std::string error;
    EXPECT_FALSE(trace::parseFlags("net,bogus", mask, error));
    EXPECT_EQ(mask, 0xdeadu) << "mask must be untouched on failure";
    EXPECT_NE(error.find("bogus"), std::string::npos);
    // The error lists every valid flag so a sweep log is actionable.
    EXPECT_NE(error.find(trace::validFlagNames()), std::string::npos);
    EXPECT_EQ(trace::validFlagNames(), "core,sb,net,spec,req,stall,all");
}

TEST(TraceFlags, ParseAcceptsKnownFlagCombinations)
{
    std::uint32_t mask = 0;
    std::string error;
    ASSERT_TRUE(trace::parseFlags("core,sb", mask, error)) << error;
    EXPECT_EQ(mask, static_cast<std::uint32_t>(trace::Flag::Core) |
                        static_cast<std::uint32_t>(trace::Flag::SB));
    ASSERT_TRUE(trace::parseFlags("all", mask, error)) << error;
    EXPECT_EQ(mask, static_cast<std::uint32_t>(trace::Flag::All));
}

TEST(TraceFlags, ParseRejectsUnknownFlagsListingAllOfThem)
{
    std::uint32_t mask = 0xdead;
    std::string error;
    ASSERT_FALSE(
        trace::parseFlags("core,bogus,spec,typo", mask, error));
    // Both bad tokens in one message, plus the valid vocabulary.
    EXPECT_NE(error.find("bogus"), std::string::npos) << error;
    EXPECT_NE(error.find("typo"), std::string::npos) << error;
    EXPECT_NE(error.find(trace::validFlagNames()), std::string::npos)
        << error;
    // A failed parse leaves the caller's mask untouched.
    EXPECT_EQ(mask, 0xdeadu);
}

TEST(TraceSink, DisabledByDefaultAndMaskGates)
{
    trace::TraceSink sink;
    EXPECT_FALSE(sink.enabled());
    EXPECT_FALSE(sink.wants(trace::Flag::Spec));

    sink.setMask(static_cast<std::uint32_t>(trace::Flag::Spec));
    EXPECT_TRUE(sink.enabled());
    EXPECT_TRUE(sink.wants(trace::Flag::Spec));
    EXPECT_FALSE(sink.wants(trace::Flag::Req));
}

TEST(TraceSink, RecordsInOrderAcrossChunks)
{
    trace::TraceSink sink;
    sink.setMask(static_cast<std::uint32_t>(trace::Flag::Core));
    const std::uint16_t comp = sink.registerComponent("c0");
    // Cross at least one chunk boundary.
    const std::size_t n = trace::TraceSink::chunk_records + 100;
    for (std::size_t i = 0; i < n; ++i)
        sink.record(comp, trace::EventKind::CoreCommit, i, i);
    EXPECT_EQ(sink.size(), n);
    EXPECT_EQ(sink.dropped(), 0u);

    std::size_t next = 0;
    sink.forEach([&](const trace::TraceRecord &r) {
        EXPECT_EQ(r.tick, next);
        EXPECT_EQ(r.a0, next);
        EXPECT_EQ(r.comp, comp);
        ++next;
    });
    EXPECT_EQ(next, n);

    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    // Identity registrations survive a clear.
    EXPECT_EQ(sink.components().size(), 1u);
}

TEST(TraceSink, CapsAndCountsDrops)
{
    trace::TraceSink sink(8);
    sink.setMask(static_cast<std::uint32_t>(trace::Flag::Core));
    const std::uint16_t comp = sink.registerComponent("c0");
    for (Tick t = 0; t < 20; ++t)
        sink.record(comp, trace::EventKind::CoreCommit, t);
    EXPECT_EQ(sink.size(), 8u);
    EXPECT_EQ(sink.dropped(), 12u);
}

TEST(TraceSink, AuxNamesResolvePerKind)
{
    trace::TraceSink sink;
    sink.setAuxNames(trace::EventKind::SpecRollback,
                     {"conflict", "overflow"});
    EXPECT_EQ(sink.auxName(trace::EventKind::SpecRollback, 0),
              "conflict");
    EXPECT_EQ(sink.auxName(trace::EventKind::SpecRollback, 1),
              "overflow");
    // Out of range or unregistered kinds degrade to "".
    EXPECT_EQ(sink.auxName(trace::EventKind::SpecRollback, 7), "");
    EXPECT_EQ(sink.auxName(trace::EventKind::CoreStall, 0), "");
}

TEST(TraceSink, ExportsWellFormedChromeJson)
{
    trace::TraceSink sink;
    sink.setMask(static_cast<std::uint32_t>(trace::Flag::All));
    const std::uint16_t core = sink.registerComponent("core_0");
    const std::uint16_t l1 = sink.registerComponent("l1_0");
    sink.setAuxNames(trace::EventKind::SpecRollback, {"conflict"});

    // One of each phase: counter, duration, instant, request flow.
    sink.record(core, trace::EventKind::CoreCommit, 10, 5);
    sink.record(core, trace::EventKind::SpecEpoch, 50, 20, 12, 1);
    sink.record(core, trace::EventKind::SpecRollback, 60, 0, 4, 0);
    sink.record(l1, trace::EventKind::ReqIssue, 30, 1, 0x1000);
    sink.record(l1, trace::EventKind::ReqFill, 90, 1, 0x1000);

    std::vector<trace::TraceRecord> records;
    sink.forEach(
        [&](const trace::TraceRecord &r) { records.push_back(r); });
    std::ostringstream os;
    sink.exportChromeJson(os, records, sink.dropped(), "");
    const std::string json = os.str();

    expectBalancedJson(json);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Track metadata for both components.
    EXPECT_NE(json.find("core_0"), std::string::npos);
    EXPECT_NE(json.find("l1_0"), std::string::npos);
    // The epoch is a complete ("X") event with begin tick and duration.
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    // The rollback is an instant with its decoded cause.
    EXPECT_NE(json.find("conflict"), std::string::npos);
    // The request produced a flow arrow (start + finish).
    EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
}

TEST(SystemObservability, DisabledTracingRecordsNothing)
{
    auto sys = runTracedSystem(0);
    EXPECT_EQ(sys->tracer().size(), 0u);
    EXPECT_EQ(sys->tracer().dropped(), 0u);
}

TEST(SystemObservability, EndToEndTraceHasAllEventFamilies)
{
    auto sys = runTracedSystem(
        static_cast<std::uint32_t>(trace::Flag::All));
    ASSERT_GT(sys->tracer().size(), 0u);

    bool saw_commit = false, saw_epoch = false, saw_issue = false,
         saw_dir = false, saw_fill = false, saw_sb = false;
    sys->tracer().forEach([&](const trace::TraceRecord &r) {
        switch (static_cast<trace::EventKind>(r.kind)) {
          case trace::EventKind::CoreCommit: saw_commit = true; break;
          case trace::EventKind::SpecEpoch: saw_epoch = true; break;
          case trace::EventKind::ReqIssue: saw_issue = true; break;
          case trace::EventKind::ReqDirIngress: saw_dir = true; break;
          case trace::EventKind::ReqFill: saw_fill = true; break;
          case trace::EventKind::SbOccupancy: saw_sb = true; break;
          default: break;
        }
    });
    EXPECT_TRUE(saw_commit);
    EXPECT_TRUE(saw_epoch);
    EXPECT_TRUE(saw_issue);
    EXPECT_TRUE(saw_dir);
    EXPECT_TRUE(saw_fill);
    EXPECT_TRUE(saw_sb);

    std::ostringstream os;
    sys->exportTrace(os);
    const std::string json = os.str();
    expectBalancedJson(json);
    // Request-lifetime flows cross components (≥1 start/finish pair).
    EXPECT_GE(countOccurrences(json, "\"ph\": \"s\""), 1u);
    EXPECT_GE(countOccurrences(json, "\"ph\": \"f\""), 1u);
}

TEST(SystemObservability, MaskRestrictsFamilies)
{
    auto sys = runTracedSystem(
        static_cast<std::uint32_t>(trace::Flag::Spec));
    ASSERT_GT(sys->tracer().size(), 0u);
    sys->tracer().forEach([&](const trace::TraceRecord &r) {
        const auto kind = static_cast<trace::EventKind>(r.kind);
        EXPECT_TRUE(kind == trace::EventKind::SpecEpoch ||
                    kind == trace::EventKind::SpecRollback)
            << "unexpected kind " << r.kind;
    });
}

TEST(SystemObservability, RequestLatencyDistributionsPopulated)
{
    auto sys = runTracedSystem(0);
    // Attribution stats fill in regardless of the trace mask: they are
    // ordinary Distributions, not trace events.
    const auto *l1 = sys->stats().findGroup("l1_0");
    ASSERT_NE(l1, nullptr);
    const auto *miss = l1->findDistribution("miss_latency");
    ASSERT_NE(miss, nullptr);
    EXPECT_GT(miss->samples(), 0u);
    EXPECT_GT(miss->mean(), 0.0);

    const auto *dir = sys->stats().findGroup("l2dir");
    ASSERT_NE(dir, nullptr);
    const auto *svc = dir->findDistribution("txn_service");
    ASSERT_NE(svc, nullptr);
    EXPECT_GT(svc->samples(), 0u);

    const auto *net = sys->stats().findGroup("network");
    ASSERT_NE(net, nullptr);
    const auto *lat = net->findDistribution("msg_latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_GT(lat->samples(), 0u);
    // Every message takes at least the configured hop latency.
    EXPECT_GE(lat->minValue(), 4.0);
}

TEST(SystemObservability, PeriodicSnapshotsFormTimeSeries)
{
    auto sys = runTracedSystem(0, 200);
    ASSERT_GE(sys->snapshots().size(), 2u);
    Tick prev = 0;
    for (const auto &snap : sys->snapshots()) {
        EXPECT_GT(snap.tick, prev);
        prev = snap.tick;
        EXPECT_NE(snap.groups_json.find("\"l1_0\""),
                  std::string::npos);
    }
}

TEST(SystemObservability, StatsJsonDocumentComposes)
{
    auto sys = runTracedSystem(0, 200);
    std::ostringstream os;
    sys->writeStatsJson(os);
    const std::string json = os.str();
    expectBalancedJson(json);
    EXPECT_NE(json.find("\"groups\""), std::string::npos);
    EXPECT_NE(json.find("\"snapshots\""), std::string::npos);
    EXPECT_NE(json.find("\"tick\""), std::string::npos);
    EXPECT_NE(json.find("miss_latency"), std::string::npos);
}

TEST(SystemObservability, TracedSystemsAreSweepSafe)
{
    // Per-system sinks share nothing, so traced systems running
    // concurrently under the SweepRunner must record identical,
    // deterministic traces (the CI TSan job runs this test).
    harness::SweepRunner runner(4);
    std::vector<std::function<std::size_t()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([]() -> std::size_t {
            auto sys = runTracedSystem(
                static_cast<std::uint32_t>(trace::Flag::All));
            return sys->tracer().size();
        });
    }
    const std::vector<std::size_t> sizes = runner.map(std::move(tasks));
    ASSERT_EQ(sizes.size(), 8u);
    EXPECT_GT(sizes[0], 0u);
    for (std::size_t s : sizes)
        EXPECT_EQ(s, sizes[0]);
}
