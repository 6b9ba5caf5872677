/**
 * @file
 * Tail-latency observability: per-request span tracing.
 *
 * The guarantees under test:
 *
 *  - sampling is a pure function of the request id, so the traced set
 *    -- and every derived artifact (stage-attribution table, top-K
 *    dossiers, "tailtrace" stat group) -- is byte-identical run to run
 *    and across --jobs values;
 *  - spans record stage-boundary events only, so the per-stage cycle
 *    sums tile the end-to-end latency EXACTLY, span by span and in the
 *    aggregate reconciliation line of --tail-report;
 *  - the top-K dossier selection is deterministic: (latency desc,
 *    request sequence asc), K respected;
 *  - with tracing off (tail_sample == 0) the subsystem contributes
 *    zero output bytes: no "tailtrace" stat group, no req_stage trace
 *    records, stats JSON byte-identical to a config that never heard
 *    of span tracing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "harness/system.hh"
#include "sim/reqtrace.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::reqtrace;

// ---------------------------------------------------------------------
// sampling: pure function of the request id
// ---------------------------------------------------------------------

TEST(ReqTraceSampling, RequestZeroNeverSampled)
{
    // req_id 0 marks control traffic (recalls) that has no issuing
    // request; it must never enter the sampled set, even at period 1.
    ReqTraceSink sink;
    sink.configure(1);
    EXPECT_FALSE(sink.sampled(0));
    EXPECT_TRUE(sink.sampled(1));
}

TEST(ReqTraceSampling, PeriodOneSamplesEverything)
{
    ReqTraceSink sink;
    sink.configure(1);
    for (std::uint64_t id = 1; id < 1000; ++id)
        EXPECT_TRUE(sink.sampled(id)) << id;
}

TEST(ReqTraceSampling, SampledSetIsADeterministicSubset)
{
    // The period-N set must be a subset of the period-1 set selected
    // by the id mix alone -- no state, no order dependence.
    ReqTraceSink s64;
    s64.configure(64);
    std::set<std::uint64_t> first, second;
    for (std::uint64_t id = 1; id < 100000; ++id) {
        if (s64.sampled(id))
            first.insert(id);
    }
    for (std::uint64_t id = 99999; id >= 1; --id) {
        if (s64.sampled(id))
            second.insert(id);
    }
    EXPECT_EQ(first, second);
    // splitmix64 mixes well enough that the rate lands near 1/64.
    EXPECT_GT(first.size(), 99999 / 64 / 2);
    EXPECT_LT(first.size(), 99999 / 64 * 2);
    // The selection is the hash-threshold slice (a compare, not a
    // modulo, so the hot-path predicate never divides).
    for (std::uint64_t id : first)
        EXPECT_LE(mixReqId(id), ~0ULL / 64);
}

TEST(ReqTraceSampling, DisabledSinkRecordsNothing)
{
    ReqTraceSink sink;
    EXPECT_FALSE(sink.enabled());
    EXPECT_FALSE(sink.sampled(1));
}

// ---------------------------------------------------------------------
// span assembly from boundary events
// ---------------------------------------------------------------------

namespace
{

SpanEvent
ev(std::uint64_t req, Tick tick, Stage stage, std::uint32_t aux = 0,
   std::uint8_t flags = 0)
{
    SpanEvent e;
    e.req_id = req;
    e.tick = tick;
    e.stage = static_cast<std::uint8_t>(stage);
    e.aux = aux;
    e.flags = flags;
    return e;
}

} // namespace

TEST(ReqTraceAssembly, BoundaryEventsTileTheLatency)
{
    // A request that goes miss -> directory -> DRAM -> reply -> fill:
    // each stage owns [its tick, next tick), so the stage cycles sum
    // to done - issue with nothing counted twice and nothing dropped.
    std::vector<SpanEvent> events = {
        ev(7, 100, Stage::ReqNet),
        ev(7, 108, Stage::DirQueue),
        ev(7, 110, Stage::DirAccess),
        ev(7, 116, Stage::Dram),
        ev(7, 196, Stage::ReplyNet),
        ev(7, 204, Stage::FillWait),
        ev(7, 205, Stage::Done),
    };
    SpanSet set = assembleSpans(std::move(events), 1);
    ASSERT_EQ(set.spans.size(), 1u);
    EXPECT_EQ(set.incomplete, 0u);
    const Span &s = set.spans[0];
    EXPECT_EQ(s.issue, 100u);
    EXPECT_EQ(s.done, 205u);
    EXPECT_EQ(s.latency(), 105u);
    ASSERT_EQ(s.stages.size(), 6u);
    Tick sum = 0;
    for (const SpanStage &st : s.stages)
        sum += st.cycles;
    EXPECT_EQ(sum, s.latency());
    EXPECT_EQ(s.stages.front().stage, Stage::ReqNet);
    EXPECT_EQ(s.stages.front().cycles, 8u);
    EXPECT_EQ(s.stages.back().stage, Stage::FillWait);
    EXPECT_EQ(s.stages.back().cycles, 1u);
}

TEST(ReqTraceAssembly, RetryLoopsStayReconciled)
{
    // An invalidation racing the fill forces a re-request: the span
    // grows extra ReqNet.. segments but keeps tiling [issue, done].
    std::vector<SpanEvent> events = {
        ev(9, 50, Stage::ReqNet),
        ev(9, 60, Stage::DirAccess),
        ev(9, 70, Stage::ReplyNet),
        ev(9, 80, Stage::FillWait),
        ev(9, 81, Stage::ReqNet, 0, span_flag_retry),
        ev(9, 95, Stage::DirAccess),
        ev(9, 105, Stage::ReplyNet),
        ev(9, 115, Stage::FillWait),
        ev(9, 116, Stage::Done),
    };
    SpanSet set = assembleSpans(std::move(events), 1);
    ASSERT_EQ(set.spans.size(), 1u);
    const Span &s = set.spans[0];
    EXPECT_EQ(s.retries, 1u);
    Tick sum = 0;
    for (const SpanStage &st : s.stages)
        sum += st.cycles;
    EXPECT_EQ(sum, s.latency());
    EXPECT_EQ(s.latency(), 66u);
}

TEST(ReqTraceAssembly, WaiterEventsBecomeSeparateSpans)
{
    // Two coalesced waiters queue behind a traced primary: each gets
    // its own single-stage L1Queue span ending at the primary's fill.
    std::vector<SpanEvent> events = {
        ev(3, 10, Stage::ReqNet),
        ev(3, 12, Stage::L1Queue, 111, span_flag_waiter),
        ev(3, 20, Stage::DirAccess),
        ev(3, 25, Stage::L1Queue, 222, span_flag_waiter),
        ev(3, 40, Stage::ReplyNet),
        ev(3, 48, Stage::FillWait),
        ev(3, 50, Stage::Done, 2),
    };
    SpanSet set = assembleSpans(std::move(events), 1);
    ASSERT_EQ(set.spans.size(), 3u);
    const Span &primary = set.spans[0];
    EXPECT_FALSE(primary.waiter);
    EXPECT_EQ(primary.waiters, 2u);
    std::size_t waiters = 0;
    for (const Span &s : set.spans) {
        if (!s.waiter)
            continue;
        ++waiters;
        ASSERT_EQ(s.stages.size(), 1u);
        EXPECT_EQ(s.stages[0].stage, Stage::L1Queue);
        EXPECT_EQ(s.done, primary.done);
        EXPECT_EQ(s.stages[0].cycles, s.latency());
    }
    EXPECT_EQ(waiters, 2u);
}

TEST(ReqTraceAssembly, UnfinishedRequestsAreCountedNotInvented)
{
    // A request still in flight at the end of the run has no Done
    // event: it must not fabricate a span.
    std::vector<SpanEvent> events = {
        ev(5, 10, Stage::ReqNet),
        ev(5, 20, Stage::DirAccess),
    };
    SpanSet set = assembleSpans(std::move(events), 1);
    EXPECT_TRUE(set.spans.empty());
    EXPECT_EQ(set.incomplete, 1u);
}

TEST(ReqTraceTopK, OrderedByLatencyThenSequence)
{
    SpanSet set;
    auto mk = [](std::uint64_t req, Tick issue, Tick done, bool waiter) {
        Span s;
        s.req_id = req;
        s.issue = issue;
        s.done = done;
        s.waiter = waiter;
        return s;
    };
    const std::uint64_t c0 = 1ULL << 40; // core 0, seq starts at 1
    set.spans.push_back(mk(c0 + 1, 0, 50, false));
    set.spans.push_back(mk(c0 + 2, 0, 90, false));
    set.spans.push_back(mk(c0 + 3, 10, 100, false)); // ties req 2
    set.spans.push_back(mk(c0 + 4, 0, 500, true));   // waiter: excluded
    set.spans.push_back(mk(c0 + 5, 0, 200, false));

    const auto top = topK(set, 3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0]->req_id, c0 + 5); // 200 cycles
    EXPECT_EQ(top[1]->req_id, c0 + 2); // 90, earlier seq wins the tie
    EXPECT_EQ(top[2]->req_id, c0 + 3); // 90
    // K larger than the population returns every primary.
    EXPECT_EQ(topK(set, 100).size(), 4u);
}

// ---------------------------------------------------------------------
// whole-system runs
// ---------------------------------------------------------------------

namespace
{

/** Every tail-observability artifact of one run. */
struct TailRun
{
    bool completed = false;
    std::string stats;    //!< writeStatsJson
    std::string report;   //!< writeTailReport
    std::string outliers; //!< writeOutliers
    std::string trace;    //!< exportTrace
};

harness::SystemConfig
tailConfig(std::uint64_t period)
{
    harness::SystemConfig cfg;
    cfg.num_cores = 8;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.withSpeculation();
    if (period)
        cfg.withTailTrace(period, 5);
    return cfg;
}

TailRun
runTail(std::uint64_t period)
{
    const harness::SystemConfig cfg = tailConfig(period);
    workload::SpinlockCrit wl;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    TailRun r;
    r.completed = sys.run();
    {
        std::ostringstream os;
        sys.writeStatsJson(os);
        r.stats = os.str();
    }
    {
        std::ostringstream os;
        sys.writeTailReport(os);
        r.report = os.str();
    }
    {
        std::ostringstream os;
        sys.writeOutliers(os);
        r.outliers = os.str();
    }
    {
        std::ostringstream os;
        sys.exportTrace(os);
        r.trace = os.str();
    }
    return r;
}

} // namespace

TEST(TailTrace, EveryMissReconcilesExactly)
{
    // period 1: every miss traced; each span's stage cycles must sum
    // to its end-to-end latency, and the aggregate attribution must
    // reconcile to the cycle.
    const harness::SystemConfig cfg = tailConfig(1);
    workload::SpinlockCrit wl;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());

    const SpanSet &set = sys.tailSpans();
    ASSERT_GT(set.spans.size(), 0u);
    std::uint64_t e2e = 0;
    for (const Span &s : set.spans) {
        Tick sum = 0;
        for (const SpanStage &st : s.stages)
            sum += st.cycles;
        EXPECT_EQ(sum, s.latency()) << "req " << s.req_id;
        e2e += s.latency();
    }
    const TailAttribution &at = sys.tailAttribution();
    std::uint64_t stage_cycles = 0;
    for (const StageRow &row : at.rows)
        stage_cycles += row.cycles;
    EXPECT_EQ(stage_cycles, at.e2e_cycles);
    EXPECT_EQ(at.e2e_cycles, e2e);
    EXPECT_EQ(at.spans, set.spans.size());

    std::ostringstream os;
    sys.writeTailReport(os);
    EXPECT_NE(os.str().find("(reconciled exactly)"), std::string::npos)
        << os.str();
    EXPECT_EQ(os.str().find("MISMATCH"), std::string::npos) << os.str();
}

TEST(TailTrace, ArtifactsByteIdenticalRunToRun)
{
    const TailRun ref = runTail(1);
    ASSERT_TRUE(ref.completed);
    EXPECT_NE(ref.stats.find("\"tailtrace\""), std::string::npos);
    EXPECT_NE(ref.report.find("=== tail report"), std::string::npos);
    EXPECT_NE(ref.outliers.find("\"outliers\""), std::string::npos);
    const TailRun got = runTail(1);
    ASSERT_TRUE(got.completed);
    EXPECT_EQ(got.stats, ref.stats);
    EXPECT_EQ(got.report, ref.report);
    EXPECT_EQ(got.outliers, ref.outliers);
    EXPECT_EQ(got.trace, ref.trace);
}

TEST(TailTrace, SampledSubsetByteIdenticalRunToRun)
{
    // The interesting period: a proper subset of misses is traced, so
    // identity requires the SAME requests to be picked on every run --
    // sampling must hash the request id, not count or draw at random.
    const TailRun ref = runTail(4);
    ASSERT_TRUE(ref.completed);
    const TailRun got = runTail(4);
    EXPECT_EQ(got.report, ref.report);
    EXPECT_EQ(got.outliers, ref.outliers);
    EXPECT_EQ(got.stats, ref.stats);
}

TEST(TailTrace, ByteIdenticalInsideParallelSweep)
{
    // Span tracing composes with sweep-level host parallelism: the
    // same tasks under --jobs=1 and --jobs=4 produce the same bytes.
    auto make_tasks = [] {
        std::vector<std::function<std::string()>> tasks;
        for (std::uint64_t period : {1u, 4u, 64u}) {
            tasks.push_back([period]() -> std::string {
                const TailRun r = runTail(period);
                return r.report + r.outliers;
            });
        }
        return tasks;
    };
    harness::SweepRunner serial(1);
    harness::SweepRunner parallel(4);
    const auto seq = serial.map(make_tasks());
    const auto par = parallel.map(make_tasks());
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(seq[i], par[i]) << "task " << i;
}

TEST(TailTrace, TopKDossiersDeterministicAndOrdered)
{
    const TailRun a = runTail(1);
    const TailRun b = runTail(1);
    ASSERT_TRUE(a.completed);
    EXPECT_EQ(a.outliers, b.outliers);

    // The dossier list respects K and is sorted by latency desc.
    std::vector<std::uint64_t> latencies;
    std::istringstream is(a.outliers);
    std::string line;
    while (std::getline(is, line)) {
        const auto pos = line.find("\"latency\": ");
        if (pos != std::string::npos)
            latencies.push_back(std::stoull(line.substr(pos + 11)));
    }
    ASSERT_FALSE(latencies.empty());
    EXPECT_LE(latencies.size(), 5u); // tailConfig passes outliers=5
    EXPECT_TRUE(std::is_sorted(latencies.rbegin(), latencies.rend()))
        << a.outliers;
    // Dossiers carry a symbolized PC and the owning directory bank.
    EXPECT_NE(a.outliers.find("\"pc_sym\""), std::string::npos);
    EXPECT_NE(a.outliers.find("\"dir_bank\""), std::string::npos);
}

TEST(TailTrace, PerfettoExportCarriesSpanStages)
{
    const TailRun r = runTail(1);
    ASSERT_TRUE(r.completed);
    // Stage slices render under the recording component's track with
    // the stage name, chained by "span"-category flow arrows.
    EXPECT_NE(r.trace.find("\"req_net\""), std::string::npos);
    EXPECT_NE(r.trace.find("\"cat\": \"span\""), std::string::npos);
}

// ---------------------------------------------------------------------
// off mode: zero output bytes
// ---------------------------------------------------------------------

TEST(TailTrace, OffModeContributesZeroOutputBytes)
{
    const TailRun off = runTail(0);
    ASSERT_TRUE(off.completed);
    EXPECT_EQ(off.stats.find("tailtrace"), std::string::npos);
    EXPECT_EQ(off.trace.find("req_stage"), std::string::npos);
    EXPECT_EQ(off.trace.find("\"cat\": \"span\""), std::string::npos);
    EXPECT_NE(off.report.find("span tracing was off"),
              std::string::npos);
    // An off-mode dossier request yields an empty outlier list, not an
    // error -- and nothing else.
    EXPECT_NE(off.outliers.find("\"outliers\": [\n  ]"),
              std::string::npos)
        << off.outliers;
}

TEST(TailTrace, StatGroupMatchesAssembledSpans)
{
    const harness::SystemConfig cfg = tailConfig(1);
    workload::SpinlockCrit wl;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());

    const auto *group = sys.stats().findGroup("tailtrace");
    ASSERT_NE(group, nullptr);
    std::uint64_t primaries = 0, waiters = 0;
    for (const Span &s : sys.tailSpans().spans)
        ++(s.waiter ? waiters : primaries);
    EXPECT_EQ(group->scalarCount("sampled_spans"), primaries);
    EXPECT_EQ(group->scalarCount("waiter_spans"), waiters);
    EXPECT_GT(primaries, 0u);
    const auto *e2e = group->findDistribution("e2e_latency");
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->samples(), sys.tailSpans().spans.size());
}
