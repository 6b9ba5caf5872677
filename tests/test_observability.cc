/**
 * @file
 * Observability tests: the structured TraceSink (what it records,
 * capping, aux-name tables, Chrome trace-event export of records and
 * request spans) and the System-level plumbing (per-system sinks,
 * which track records each kind, periodic stat snapshots, the
 * --stats-json document).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "sim/reqtrace.hh"
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

/** The unsigned number right after @p key in @p json; 0 if absent. */
std::uint64_t
numberAfter(const std::string &json, const std::string &key)
{
    const std::size_t pos = json.find(key);
    EXPECT_NE(pos, std::string::npos) << key;
    return pos == std::string::npos
               ? 0
               : std::stoull(json.substr(pos + key.size()));
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
runTracedSystem(bool tracing, Tick stats_interval = 0,
                std::uint64_t tail_sample = 0)
{
    harness::SystemConfig cfg = testConfig(2);
    cfg.withSpeculation();
    cfg.tracing = tracing;
    cfg.stats_interval = stats_interval;
    cfg.tail_sample = tail_sample;
    workload::LocalLockStream::Params params;
    params.iters = 16;
    workload::LocalLockStream wl(params);
    isa::Program prog = wl.build(cfg.num_cores);
    auto sys = std::make_unique<harness::System>(cfg, prog);
    EXPECT_TRUE(sys->run());
    return sys;
}

} // namespace

TEST(TraceSink, DisabledByDefaultAndMaskGates)
{
    // Off by default.  The flight recorder wants every kind but the
    // per-instruction commit counter; tracing wants every kind.
    using trace::EventKind;
    trace::TraceSink sink;
    EXPECT_FALSE(sink.enabled());
    EXPECT_FALSE(sink.wants(EventKind::SpecEpoch));

    sink.configureRing(4);
    EXPECT_FALSE(sink.enabled());
    EXPECT_FALSE(sink.wants(EventKind::CoreCommit));
    for (EventKind k : {EventKind::CoreStall, EventKind::SpecEpoch,
                        EventKind::SpecRollback, EventKind::SbOccupancy,
                        EventKind::NetHop})
        EXPECT_TRUE(sink.wants(k)) << trace::eventKindName(k);

    sink.setEnabled(true);
    EXPECT_TRUE(sink.enabled());
    EXPECT_TRUE(sink.wants(EventKind::CoreCommit));
}

TEST(TraceSink, RecordsInOrderAcrossChunks)
{
    trace::TraceSink sink;
    sink.setEnabled(true);
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
    sink.setEnabled(true);
    const std::uint16_t comp = sink.registerComponent("c0");
    for (Tick t = 0; t < 20; ++t)
        sink.record(comp, trace::EventKind::CoreCommit, t);
    EXPECT_EQ(sink.size(), 8u);
    EXPECT_EQ(sink.dropped(), 12u);
}

TEST(TraceSink, RingSizedBeforeOrAfterRegistration)
{
    // Each component owns its flight-recorder ring.  Whether the ring
    // is configured before the components register (the System's
    // order) or after, every component keeps exactly its last
    // ringCapacity() events.
    trace::TraceSink before;
    before.configureRing(3);
    before.registerComponent("c0");
    before.registerComponent("c1");
    trace::TraceSink after;
    after.registerComponent("c0");
    after.registerComponent("c1");
    after.configureRing(3);

    for (trace::TraceSink *sink : {&before, &after}) {
        ASSERT_EQ(sink->ringCapacity(), 4u); // rounded up to 2^k
        for (std::uint16_t c = 0; c < 2; ++c) {
            for (Tick t = 0; t < 10; ++t)
                sink->record(c, trace::EventKind::SpecRollback, t, c);
        }
        EXPECT_EQ(sink->ringPushes(), 20u);
        for (std::uint16_t c = 0; c < 2; ++c) {
            std::vector<Tick> kept;
            sink->forEachRingRecord(c, [&](const trace::TraceRecord &r) {
                EXPECT_EQ(r.comp, c);
                EXPECT_EQ(r.a0, c);
                kept.push_back(r.tick);
            });
            EXPECT_EQ(kept, (std::vector<Tick>{6, 7, 8, 9}))
                << sink->components()[c];
        }
    }
}

TEST(TraceSink, ComponentIdsFollowConstructionOrder)
{
    // Components register once, as the System builds them; the ids
    // (track numbers, flight-recorder dump order) are that order.  A
    // component owns exactly one track, and only components that
    // record own one: the network, whose arrivals its receivers
    // record, and the store buffers, whose occupancy their cores
    // record, have none.
    harness::SystemConfig cfg = testConfig(2);
    cfg.withDirBanks(2).withSpeculation();
    workload::LocalLockStream wl;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    EXPECT_EQ(sys.tracer().components(),
              (std::vector<std::string>{
                  "l1_0", "l1_1", "l2dir.bank0", "l2dir.bank1",
                  "core_0", "core_1", "spec_0", "spec_1"}));
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
    sink.setEnabled(true);
    const std::uint16_t core = sink.registerComponent("core_0");
    const std::uint16_t l1 = sink.registerComponent("l1_0");
    const std::uint16_t dir = sink.registerComponent("l2dir");
    sink.setAuxNames(trace::EventKind::SpecRollback, {"conflict"});

    // One of each phase: counter, duration, instant.
    sink.record(core, trace::EventKind::CoreCommit, 10, 5);
    sink.record(core, trace::EventKind::SpecEpoch, 50, 20, 12, 1);
    sink.record(core, trace::EventKind::SpecRollback, 60, 0, 4, 0);

    std::vector<trace::TraceRecord> records;
    sink.forEach(
        [&](const trace::TraceRecord &r) { records.push_back(r); });
    // The request flow: one sampled request's two span stages.
    reqtrace::SpanSet spans;
    reqtrace::Span span;
    span.req_id = 1;
    span.stages = {{reqtrace::Stage::ReqNet, 30, 60, l1, 0, 0},
                   {reqtrace::Stage::ReplyNet, 90, 4, dir, 0, 0}};
    spans.spans.push_back(span);
    std::ostringstream os;
    sink.exportChromeJson(os, records, spans, sink.dropped(), "");
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
    // The request produced a flow arrow (start + finish) between its
    // named stage slices.
    EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"span\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"req_net\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"reply_net\""), std::string::npos);
}

TEST(TraceSink, PrimaryAndWaiterSpansFormOneFlowInTickOrder)
{
    // Coalesced waiters share their primary miss's request id, so the
    // export draws the primary and its waiter spans as one flow: their
    // stages merge by tick, and on a tie the primary's stage comes
    // first.
    using reqtrace::Stage;
    trace::TraceSink sink;
    const std::uint16_t l1 = sink.registerComponent("l1_0");
    const std::uint16_t dir = sink.registerComponent("l2dir");
    reqtrace::Span primary;
    primary.req_id = 7;
    primary.stages = {{Stage::ReqNet, 10, 5, l1, 0, 0},
                      {Stage::DirAccess, 15, 20, dir, 0, 0},
                      {Stage::ReplyNet, 35, 5, dir, 0, 0}};
    reqtrace::SpanSet spans;
    spans.spans.push_back(primary);
    for (Tick queued : {Tick(12), Tick(15)}) {
        reqtrace::Span waiter;
        waiter.req_id = 7;
        waiter.waiter = true;
        waiter.stages = {{Stage::L1Queue, queued, 40 - queued, l1, 0,
                          reqtrace::span_flag_waiter}};
        spans.spans.push_back(waiter);
    }
    std::ostringstream os;
    sink.exportChromeJson(os, {}, spans, 0, "");

    // The exporter writes one event per line: list the request's
    // stage slices and flow steps as "name@ts" in output order.
    std::vector<std::string> slices, flow;
    std::istringstream lines(os.str());
    for (std::string line; std::getline(lines, line);) {
        const std::size_t name = line.find("\"name\": \"");
        const std::size_t ts = line.find("\"ts\": ");
        if (name == std::string::npos || ts == std::string::npos)
            continue;
        const std::size_t from = name + 9;
        const std::string event =
            line.substr(from, line.find('"', from) - from) + "@" +
            std::to_string(std::stoull(line.substr(ts + 6)));
        if (line.find("\"req\": 7") != std::string::npos) {
            slices.push_back(event);
        } else if (line.find("\"id\": 7") != std::string::npos) {
            const std::size_t ph = line.find("\"ph\": \"") + 7;
            flow.push_back(line.substr(ph, 1) + event);
        }
    }
    EXPECT_EQ(slices, (std::vector<std::string>{
                          "req_net@10", "l1_queue@12", "dir_access@15",
                          "l1_queue@15", "reply_net@35"}));
    EXPECT_EQ(flow, (std::vector<std::string>{
                        "sspan@10", "tspan@12", "tspan@15", "tspan@15",
                        "fspan@35"}));
}

TEST(SystemObservability, DisabledTracingRecordsNothing)
{
    auto sys = runTracedSystem(false);
    EXPECT_EQ(sys->tracer().size(), 0u);
    EXPECT_EQ(sys->tracer().dropped(), 0u);
}

TEST(SystemObservability, EndToEndTraceHasAllEventFamilies)
{
    auto sys = runTracedSystem(true, 0, 1);
    ASSERT_GT(sys->tracer().size(), 0u);

    bool saw_commit = false, saw_epoch = false, saw_hop = false,
         saw_sb = false;
    sys->tracer().forEach([&](const trace::TraceRecord &r) {
        switch (static_cast<trace::EventKind>(r.kind)) {
          case trace::EventKind::CoreCommit: saw_commit = true; break;
          case trace::EventKind::SpecEpoch: saw_epoch = true; break;
          case trace::EventKind::NetHop: saw_hop = true; break;
          case trace::EventKind::SbOccupancy: saw_sb = true; break;
          default: break;
        }
    });
    EXPECT_TRUE(saw_commit);
    EXPECT_TRUE(saw_epoch);
    EXPECT_TRUE(saw_hop);
    EXPECT_TRUE(saw_sb);

    std::ostringstream os;
    sys->exportTrace(os);
    const std::string json = os.str();
    expectBalancedJson(json);
    // Sampled request spans cross components (≥1 start/finish pair).
    EXPECT_GE(countOccurrences(json, "\"ph\": \"s\""), 1u);
    EXPECT_GE(countOccurrences(json, "\"ph\": \"f\""), 1u);
}

TEST(SystemObservability, EachKindIsRecordedOnItsOwnersTrack)
{
    // A message arrival is recorded by the L1 or bank it reached and
    // store-buffer occupancy by its core, in the full trace and in the
    // flight recorder alike.
    auto sys = runTracedSystem(true, 0, 1);
    const trace::TraceSink &sink = sys->tracer();
    const auto starts = [](const std::string &s, const char *prefix) {
        return s.rfind(prefix, 0) == 0;
    };
    std::size_t hops = 0, occupancies = 0;
    const auto check = [&](const trace::TraceRecord &r) {
        const std::string &track = sink.components().at(r.comp);
        switch (static_cast<trace::EventKind>(r.kind)) {
          case trace::EventKind::NetHop:
            ++hops;
            EXPECT_TRUE(starts(track, "l1_") || starts(track, "l2dir"))
                << track;
            break;
          case trace::EventKind::SbOccupancy:
            ++occupancies;
            EXPECT_TRUE(starts(track, "core_") &&
                        track.find('.') == std::string::npos)
                << track;
            break;
          default:
            break;
        }
    };
    sink.forEach(check);
    for (std::size_t c = 0; c < sink.components().size(); ++c)
        sink.forEachRingRecord(static_cast<std::uint16_t>(c), check);
    EXPECT_GT(hops, 0u);
    EXPECT_GT(occupancies, 0u);
}

TEST(SystemObservability, RequestLatencyDistributionsPopulated)
{
    auto sys = runTracedSystem(false);
    // Attribution stats fill in whether or not tracing is on: they are
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
    const std::string msgs_key =
        "\"network.msgs\": {\"kind\": \"scalar\", \"value\": ";
    const std::string lat_n_key =
        "\"network.msg_latency\": {\"kind\": \"distribution\", \"n\": ";
    const std::string links_key =
        "\"network.links_used\": {\"kind\": \"scalar\", \"value\": ";

    auto sys = runTracedSystem(false, 200);
    ASSERT_GE(sys->snapshots().size(), 2u);
    Tick prev = 0;
    std::uint64_t prev_msgs = 0;
    for (const auto &snap : sys->snapshots()) {
        EXPECT_GT(snap.tick, prev);
        prev = snap.tick;
        EXPECT_NE(snap.groups_json.find("\"l1_0\""),
                  std::string::npos);
        // The network's stats are live: each snapshot shows the
        // traffic so far.
        const std::uint64_t msgs = numberAfter(snap.groups_json, msgs_key);
        EXPECT_GE(msgs, prev_msgs) << "tick " << snap.tick;
        prev_msgs = msgs;
    }
    const std::string &last = sys->snapshots().back().groups_json;
    const statistics::StatGroup *net = sys->stats().findGroup("network");
    ASSERT_NE(net, nullptr);
    EXPECT_GT(numberAfter(last, msgs_key), 0u);
    EXPECT_LE(numberAfter(last, msgs_key), net->scalarCount("msgs"));
    EXPECT_GT(numberAfter(last, lat_n_key), 0u);
    EXPECT_LE(numberAfter(last, lat_n_key),
              net->findDistribution("msg_latency")->samples());

    // A snapshot folds the ring's link stats too.
    harness::SystemConfig cfg = testConfig(16);
    cfg.withTopology(mem::Topology::Ring);
    cfg.stats_interval = 500;
    workload::LocalLockStream::Params params;
    params.iters = 8;
    workload::LocalLockStream wl(params);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System ring(cfg, prog);
    ASSERT_TRUE(ring.run());
    ASSERT_FALSE(ring.snapshots().empty());
    EXPECT_GT(numberAfter(ring.snapshots().back().groups_json, links_key),
              0u);
}

TEST(SystemObservability, StatsJsonDocumentComposes)
{
    auto sys = runTracedSystem(false, 200);
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
            auto sys = runTracedSystem(true);
            return sys->tracer().size();
        });
    }
    const std::vector<std::size_t> sizes = runner.map(std::move(tasks));
    ASSERT_EQ(sizes.size(), 8u);
    EXPECT_GT(sizes[0], 0u);
    for (std::size_t s : sizes)
        EXPECT_EQ(s, sizes[0]);
}
