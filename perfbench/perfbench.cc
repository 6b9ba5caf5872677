/**
 * @file
 * The repository benchmark driver (see README.md next to this file).
 *
 * Runs one workload -- a fixed list of simulation points -- through the
 * public harness::System / workload::Workload API only, one point at a
 * time on one thread.  For every point it times program build, System
 * construction, System::run(), the postcondition check and System
 * destruction separately, and gates correctness outside those timed
 * intervals.
 *
 * The points run in passes.  Pass 0 is the reference pass: it reads the
 * exact per-layer counts at the run boundary and digests every point's
 * stat registry, and its timings are used only when no timed pass
 * follows.  Timed passes repeat until --seconds have elapsed and must
 * reproduce pass 0's simulated results.  With --trace 1 the timed
 * passes alternate untraced and traced; a traced pass records spans in
 * memory and re-reads the counts at every run boundary, and the spans
 * are written to --trace-out when the run ends.
 *
 *   fl_perfbench --workload mesh64_stream --seed 1 --seconds 50 --trace 0
 *
 * The last stdout line is one JSON object with keys correct, attempted,
 * failed and metrics: the end-to-end metrics with --trace 0, the
 * per-layer ones with --trace 1.  The process exits 0 whenever it
 * prints that line; failed points show in the line, not the exit code.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/provenance.hh"
#include "base/stats.hh"
#include "base/stats_json.hh"
#include "harness/system.hh"
#include "workload/kernels.hh"
#include "workload/microbench.hh"
#include "workload/workload.hh"

using namespace fenceless;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- workloads -------------------------------------------------------

/** One simulation: a workload under one machine configuration. */
struct Point
{
    std::string label;
    workload::Workload *wl;
    harness::SystemConfig cfg;
};

/** The points of one benchmark workload, and the workloads they use. */
struct PointSet
{
    std::vector<workload::WorkloadPtr> owned;
    std::vector<Point> points;
};

/**
 * A kernel's data seed under benchmark seed @p seed: its shipped
 * default at seed 0, and a distinct value for every other seed (the
 * multiplier is odd, so the map is a bijection).
 */
std::uint64_t
kernelSeed(std::uint64_t shipped, std::uint64_t seed)
{
    return shipped ^ (seed * 0x9e3779b97f4a7c15ULL);
}

/**
 * workload::standardSuite(2) with the five seeded kernels' seeds taken
 * from @p seed.  Frozen here rather than called, so an edit to the
 * shipped suite cannot silently change what the benchmark measures;
 * the f2_reference self-test workload detects drift between the two.
 */
std::vector<workload::WorkloadPtr>
f2Suite(std::uint64_t seed)
{
    using namespace workload;
    constexpr std::uint64_t scale = 2;
    std::vector<WorkloadPtr> suite;

    SpinlockCrit::Params spin;
    spin.iters = 100 * scale;
    suite.push_back(std::make_unique<SpinlockCrit>(spin));

    TicketLockCrit::Params ticket;
    ticket.iters = 100 * scale;
    suite.push_back(std::make_unique<TicketLockCrit>(ticket));

    BarrierPhase::Params barrier;
    barrier.phases = 32 * scale;
    suite.push_back(std::make_unique<BarrierPhase>(barrier));

    Dekker::Params dekker;
    dekker.iters = 200 * scale;
    suite.push_back(std::make_unique<Dekker>(dekker));

    ProdCons::Params pc;
    pc.items = 256 * scale;
    suite.push_back(std::make_unique<ProdCons>(pc));

    MpmcQueue::Params mpmc;
    mpmc.items_per_producer = 128 * scale;
    suite.push_back(std::make_unique<MpmcQueue>(mpmc));

    SeqlockReaders::Params seqlock;
    seqlock.writes = 128 * scale;
    seqlock.reads = 256 * scale;
    suite.push_back(std::make_unique<SeqlockReaders>(seqlock));

    LocalLockStream::Params local;
    local.iters = 64 * scale;
    suite.push_back(std::make_unique<LocalLockStream>(local));

    AtomicHistogram::Params hist;
    hist.items_per_thread = 256 * scale;
    hist.seed = kernelSeed(hist.seed, seed);
    suite.push_back(std::make_unique<AtomicHistogram>(hist));

    Stencil2D::Params stencil;
    stencil.n = 16;
    stencil.iters = 4 * scale;
    stencil.seed = kernelSeed(stencil.seed, seed);
    suite.push_back(std::make_unique<Stencil2D>(stencil));

    IrregularUpdate::Params irregular;
    irregular.updates = 256 * scale;
    irregular.seed = kernelSeed(irregular.seed, seed);
    suite.push_back(std::make_unique<IrregularUpdate>(irregular));

    RadixPartition::Params radix;
    radix.items_per_thread = 128 * scale;
    radix.seed = kernelSeed(radix.seed, seed);
    suite.push_back(std::make_unique<RadixPartition>(radix));

    MatmulBlocked::Params matmul;
    matmul.n = 8 + 4 * scale;
    matmul.seed = kernelSeed(matmul.seed, seed);
    suite.push_back(std::make_unique<MatmulBlocked>(matmul));

    Pipeline::Params pipeline;
    pipeline.items = 128 * scale;
    suite.push_back(std::make_unique<Pipeline>(pipeline));

    return suite;
}

/**
 * The evaluated 8-core crossbar machine of Table T1, which F2 sweeps;
 * flight recorder and watchdog stay at their shipped defaults.
 */
harness::SystemConfig
t1Machine()
{
    harness::SystemConfig cfg;
    cfg.num_cores = 8;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.sb_size = 16;
    cfg.l1.size = 32 * 1024;
    cfg.l1.assoc = 8;
    cfg.l1.hit_latency = 2;
    cfg.l2.size = 4 * 1024 * 1024;
    cfg.l2.assoc = 16;
    cfg.l2.latency = 6;
    cfg.l2.dram_latency = 80;
    cfg.net.latency = 8;
    cfg.max_cycles = 2'000'000'000ULL;
    return cfg;
}

/** The 64-core, 8-bank, 2D-mesh reference machine, running TSO. */
harness::SystemConfig
mesh64Machine()
{
    harness::SystemConfig cfg;
    cfg.num_cores = 64;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.withDirBanks(8).withTopology(mem::Topology::Mesh);
    return cfg;
}

/** Every suite workload x {SC, TSO, RMO} x {baseline, on-demand}. */
void
addF2Points(PointSet &set, std::vector<workload::WorkloadPtr> suite)
{
    for (auto &wl : suite) {
        for (auto model : {cpu::ConsistencyModel::SC,
                           cpu::ConsistencyModel::TSO,
                           cpu::ConsistencyModel::RMO}) {
            for (bool speculative : {false, true}) {
                harness::SystemConfig cfg = t1Machine();
                cfg.model = model;
                if (speculative)
                    cfg.withSpeculation();
                set.points.push_back(
                    {wl->name() + "/" + (speculative ? "IF-" : "") +
                         cpu::consistencyModelName(model),
                     wl.get(), cfg});
            }
        }
        set.owned.push_back(std::move(wl));
    }
}

void
addPoint(PointSet &set, workload::WorkloadPtr wl,
         const harness::SystemConfig &cfg)
{
    set.points.push_back({wl->name(), wl.get(), cfg});
    set.owned.push_back(std::move(wl));
}

/**
 * The benchmark workloads, plus three that only the self-tests and the
 * README use: f2_reference (the shipped suite, to check f2Suite at
 * seed 0 against it), hang_probe (one healthy and one deliberately
 * deadlocked point) and l2_panic_repro (a known simulator abort).
 * @return false for an unknown name
 */
bool
makePoints(const std::string &name, std::uint64_t seed, PointSet &set)
{
    if (name == "f2_sweep") {
        addF2Points(set, f2Suite(seed));
    } else if (name == "f2_reference") {
        addF2Points(set, workload::standardSuite(2));
    } else if (name == "mesh64_stream" || name == "l2_panic_repro") {
        workload::LocalLockStream::Params p;
        p.iters = name == "mesh64_stream" ? 64 : 512;
        addPoint(set, std::make_unique<workload::LocalLockStream>(p),
                 mesh64Machine());
    } else if (name == "mesh64_shared") {
        workload::IrregularUpdate::Params p;
        p.updates = 128;
        p.bins = 1024;
        p.seed = kernelSeed(p.seed, seed);
        addPoint(set, std::make_unique<workload::IrregularUpdate>(p),
                 mesh64Machine().withSpeculation());
    } else if (name == "hang_probe") {
        // As in examples/deadlock_demo.cpp: dropping the owners'
        // Fwd*Acks for both cross-loaded blocks wedges the run.
        harness::SystemConfig cfg;
        cfg.num_cores = 2;
        cfg.model = cpu::ConsistencyModel::TSO;
        cfg.watchdog_interval = 5000;
        workload::SeededDeadlock probe;
        probe.build(cfg.num_cores);
        harness::SystemConfig hung = cfg;
        hung.net.drop_fwd_acks_for = {probe.blockX(), probe.blockY()};
        addPoint(set, std::make_unique<workload::SeededDeadlock>(), cfg);
        addPoint(set, std::make_unique<workload::SeededDeadlock>(), hung);
        set.points.back().label += "/dropped-fwd-acks";
    } else {
        return false;
    }
    return true;
}

// --- exact per-layer counts --------------------------------------------

/** Exact work counts of one point, read at its run boundary. */
struct Counts
{
    std::uint64_t events = 0, stale_pops = 0, far_pops = 0,
                  oneshot_nodes = 0;
    std::uint64_t insts = 0, cycles = 0, stall_cycles = 0, sb_drained = 0;
    std::uint64_t epochs = 0, commits = 0, rollbacks = 0,
                  discarded_insts = 0;
    std::uint64_t l1_accesses = 0, l1_hits = 0, l1_misses = 0,
                  l1_prefetches = 0;
    std::uint64_t dir_requests = 0, dir_dram_reads = 0, dir_invs = 0,
                  dir_fwds = 0;
    std::uint64_t net_msgs = 0, net_hops = 0;
    std::uint64_t stats_samples = 0;

    bool operator==(const Counts &) const = default;

    /** Sum over points; the one-shot pool keeps its high-water mark. */
    void
    add(const Counts &o)
    {
        events += o.events;
        stale_pops += o.stale_pops;
        far_pops += o.far_pops;
        oneshot_nodes = std::max(oneshot_nodes, o.oneshot_nodes);
        insts += o.insts;
        cycles += o.cycles;
        stall_cycles += o.stall_cycles;
        sb_drained += o.sb_drained;
        epochs += o.epochs;
        commits += o.commits;
        rollbacks += o.rollbacks;
        discarded_insts += o.discarded_insts;
        l1_accesses += o.l1_accesses;
        l1_hits += o.l1_hits;
        l1_misses += o.l1_misses;
        l1_prefetches += o.l1_prefetches;
        dir_requests += o.dir_requests;
        dir_dram_reads += o.dir_dram_reads;
        dir_invs += o.dir_invs;
        dir_fwds += o.dir_fwds;
        net_msgs += o.net_msgs;
        net_hops += o.net_hops;
        stats_samples += o.stats_samples;
    }
};

/** @p num / @p den, or 0 when nothing was counted or timed. */
double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Read the counts from the stat registry and the event queue. */
Counts
readCounts(harness::System &sys)
{
    Counts c;
    const sim::EventQueue &eq = sys.context().eventq;
    c.events = eq.nearPops() + eq.farPops();
    c.stale_pops = eq.stalePops();
    c.far_pops = eq.farPops();
    c.oneshot_nodes = eq.oneShotNodesAllocated();
    c.cycles = sys.runtimeCycles();

    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const statistics::StatGroup &core = sys.core(i).statGroup();
        c.insts += core.scalarCount("instructions");
        c.sb_drained += core.scalarCount("sb_drained");
        for (std::size_t r = 0;
             r < static_cast<std::size_t>(cpu::StallReason::NumReasons);
             ++r) {
            c.stall_cycles += core.scalarCount(
                std::string("stall_") +
                cpu::stallReasonName(static_cast<cpu::StallReason>(r)));
        }

        const statistics::StatGroup &l1 = sys.l1(i).statGroup();
        // Every access() call; coalesced waiters neither hit nor miss.
        c.l1_accesses += l1.scalarCount("loads") +
                         l1.scalarCount("stores") +
                         l1.scalarCount("amos") +
                         l1.scalarCount("prefetches");
        c.l1_hits += l1.scalarCount("hits");
        c.l1_misses += l1.scalarCount("misses");
        c.l1_prefetches += l1.scalarCount("prefetches");

        if (const spec::SpecController *sc = sys.specController(i)) {
            const statistics::StatGroup &g = sc->statGroup();
            c.epochs += g.scalarCount("epochs");
            c.commits += g.scalarCount("commits");
            c.rollbacks += g.scalarCount("rollbacks");
            c.discarded_insts += g.scalarCount("discarded_insts");
        }
    }
    for (std::uint32_t b = 0; b < sys.dirBanks(); ++b) {
        const statistics::StatGroup &dir =
            sys.directoryBank(b).statGroup();
        c.dir_requests += dir.scalarCount("gets") +
                          dir.scalarCount("getm") + dir.scalarCount("puts");
        c.dir_dram_reads += dir.scalarCount("dram_reads");
        c.dir_invs += dir.scalarCount("invs_sent");
        c.dir_fwds += dir.scalarCount("fwds_sent");
    }
    if (const statistics::StatGroup *net =
            sys.stats().findGroup("network")) {
        c.net_msgs = net->scalarCount("msgs");
        c.net_hops = net->scalarCount("hops");
    }
    for (const auto &group : sys.stats().groups()) {
        for (const auto &stat : group->stats()) {
            if (const auto *d = dynamic_cast<const statistics::Distribution *>(
                    stat.get()))
                c.stats_samples += d->samples();
        }
    }
    return c;
}

/** 64-bit FNV-1a, chained through @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const std::string &bytes)
{
    for (unsigned char ch : bytes) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

// --- measurement -------------------------------------------------------

/** Host seconds of one point's timed steps. */
struct PointTimes
{
    double build = 0, construct = 0, run = 0, check = 0, destroy = 0;

    double setup() const { return build + construct; }
    double wall() const { return build + construct + run + check + destroy; }
};

/** One pass over every point. */
struct Pass
{
    bool traced = false;
    double elapsed = 0;             //!< the whole pass, gate work included
    std::vector<PointTimes> points; //!< per point
    std::vector<bool> ok;           //!< per point: passed the gate
};

/** One recorded span; every span of a point shares its id. */
struct Span
{
    const char *name;
    std::uint64_t point_id;
    unsigned pass;
    std::size_t point;
    Clock::time_point start, end;
};

/** What pass 0 established for one point. */
struct Reference
{
    bool ok = false;
    Tick cycles = 0;
    std::uint64_t insts = 0;
    Counts counts;
};

class Bench
{
  public:
    explicit Bench(PointSet set) : set_(std::move(set)) {}

    /**
     * Run pass 0, then timed passes until @p budget seconds have
     * elapsed (with @p trace, at least one untraced and one traced
     * pass).  Stops early once a point has failed.
     */
    void
    run(double budget, bool trace)
    {
        refs_.resize(set_.points.size());
        passes_.push_back(runPass(0, trace));
        const Clock::time_point start = Clock::now();
        for (unsigned pass = 1; failed_ == 0; ++pass) {
            if (seconds(start, Clock::now()) >= budget &&
                !(trace && pass <= 2))
                break;
            passes_.push_back(runPass(pass, trace && pass % 2 == 0));
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    std::uint64_t digest() const { return digest_; }
    std::size_t numPoints() const { return set_.points.size(); }
    const std::vector<Pass> &passes() const { return passes_; }
    const std::vector<Span> &spans() const { return spans_; }
    const Point &point(std::size_t i) const { return set_.points[i]; }

    /** Simulated instructions of every point, from pass 0. */
    std::uint64_t
    insts() const
    {
        std::uint64_t total = 0;
        for (const Reference &r : refs_)
            total += r.insts;
        return total;
    }

    /** Pass 0's counts summed over its points. */
    Counts
    totals() const
    {
        Counts total;
        for (const Reference &r : refs_)
            total.add(r.counts);
        return total;
    }

    /**
     * The timed passes (pass >= 1) traced or not as @p traced says;
     * pass 0 alone when there are none.
     */
    std::vector<const Pass *>
    timedPasses(bool traced) const
    {
        std::vector<const Pass *> out;
        for (std::size_t i = 1; i < passes_.size(); ++i) {
            if (passes_[i].traced == traced)
                out.push_back(&passes_[i]);
        }
        if (out.empty())
            out.push_back(&passes_.front());
        return out;
    }

  private:
    Pass
    runPass(unsigned pass, bool traced)
    {
        Pass rec;
        rec.traced = traced;
        rec.points.resize(set_.points.size());
        rec.ok.resize(set_.points.size());
        const Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < set_.points.size(); ++i) {
            std::string error = runPoint(i, pass, traced, rec);
            if (!error.empty()) {
                ++failed_;
                std::cerr << "perfbench: point " << set_.points[i].label
                          << " (pass " << pass << ") failed: " << error
                          << "\n";
            }
        }
        rec.elapsed = seconds(start, Clock::now());
        return rec;
    }

    /** @return "" when the point passed the correctness gate. */
    std::string
    runPoint(std::size_t i, unsigned pass, bool traced, Pass &rec)
    {
        const Point &p = set_.points[i];
        const bool reference = pass == 0;
        const bool read_counts = reference || traced;
        const std::uint64_t id = next_point_id_++;
        ++attempted_;

        const Clock::time_point t0 = Clock::now();
        isa::Program prog = p.wl->build(p.cfg.num_cores);
        const Clock::time_point t1 = Clock::now();
        auto sys = std::make_unique<harness::System>(p.cfg, prog);
        const Clock::time_point t2 = Clock::now();
        const bool done = sys->run();
        const Clock::time_point t3 = Clock::now();
        Counts counts;
        if (done && read_counts)
            counts = readCounts(*sys);
        const Clock::time_point t4 = Clock::now();
        std::string check_error;
        const bool checked =
            done && p.wl->check(sys->memReader(), p.cfg.num_cores,
                                check_error);
        const Clock::time_point t5 = Clock::now();

        std::string error;
        const std::uint64_t insts = sys->totalInstructions();
        if (!done) {
            error = sys->hung() ? "hung (watchdog abort)"
                                : "cycle budget exhausted";
        } else if (!checked) {
            error = "postcondition failed: " + check_error;
        } else if (!sys->quiesced()) {
            error = "not quiesced after the run";
        } else {
            sys->auditCoherence(); // a violation panics the process
            error = compareToReference(i, *sys, insts, counts, reference,
                                       read_counts);
        }
        const Clock::time_point t6 = Clock::now();
        sys.reset();
        const Clock::time_point t7 = Clock::now();

        if (traced) {
            spans_.push_back({"point", id, pass, i, t0, t7});
            spans_.push_back({"workload.build", id, pass, i, t0, t1});
            spans_.push_back({"harness.construct", id, pass, i, t1, t2});
            spans_.push_back({"harness.run", id, pass, i, t2, t3});
            spans_.push_back({"counts", id, pass, i, t3, t4});
            spans_.push_back({"workload.check", id, pass, i, t4, t5});
            spans_.push_back({"verify", id, pass, i, t5, t6});
            spans_.push_back({"harness.destroy", id, pass, i, t6, t7});
        }
        PointTimes &t = rec.points[i];
        t.build = seconds(t0, t1);
        t.construct = seconds(t1, t2);
        t.run = seconds(t2, t3);
        t.check = seconds(t4, t5);
        t.destroy = seconds(t6, t7);
        rec.ok[i] = error.empty();
        return error;
    }

    /**
     * Pass 0 records the point's counts and folds its stat registry
     * into the digest; later passes must reproduce them (all counts on
     * traced passes, cycles and instructions otherwise).
     */
    std::string
    compareToReference(std::size_t i, const harness::System &sys,
                       std::uint64_t insts, const Counts &counts,
                       bool reference, bool read_counts)
    {
        Reference &ref = refs_[i];
        if (reference) {
            ref.ok = true;
            ref.cycles = sys.runtimeCycles();
            ref.insts = insts;
            ref.counts = counts;
            std::ostringstream groups;
            statistics::printGroupsJson(groups, sys.stats());
            digest_ = fnv1a(fnv1a(digest_, set_.points[i].label),
                            groups.str());
            return "";
        }
        if (!ref.ok)
            return "";
        if (sys.runtimeCycles() != ref.cycles || insts != ref.insts ||
            (read_counts && !(counts == ref.counts)))
            return "simulated results differ from pass 0";
        return "";
    }

    PointSet set_;
    std::vector<Reference> refs_;
    std::vector<Pass> passes_;
    std::vector<Span> spans_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t digest_ = 0xcbf29ce484222325ULL;
    std::uint64_t next_point_id_ = 0;
};

// --- reporting ---------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
medianOver(const std::vector<const Pass *> &passes,
           double (*f)(const Pass &))
{
    std::vector<double> v;
    for (const Pass *p : passes)
        v.push_back(f(*p));
    return median(std::move(v));
}

/**
 * A typical pass over @p passes: each step of each point at its median
 * over the passes in which the point passed, summed over the points.
 * Per-point medians shed the host's bursts of interference, which a
 * whole-pass sum of many short points would average in.
 */
PointTimes
typicalPass(const std::vector<const Pass *> &passes)
{
    PointTimes sum;
    const std::size_t n = passes.front()->points.size();
    for (std::size_t i = 0; i < n; ++i) {
        auto step = [&](double PointTimes::*field) {
            std::vector<double> v;
            for (const Pass *p : passes) {
                if (p->ok[i])
                    v.push_back(p->points[i].*field);
            }
            return median(std::move(v));
        };
        sum.build += step(&PointTimes::build);
        sum.construct += step(&PointTimes::construct);
        sum.run += step(&PointTimes::run);
        sum.check += step(&PointTimes::check);
        sum.destroy += step(&PointTimes::destroy);
    }
    return sum;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

std::vector<Metric>
endToEndMetrics(const Bench &b)
{
    const auto passes = b.timedPasses(false);
    const PointTimes typical = typicalPass(passes);
    std::vector<double> setups;
    for (const Pass *p : passes) {
        for (std::size_t i = 0; i < p->points.size(); ++i) {
            if (p->ok[i])
                setups.push_back(p->points[i].setup());
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"sim_insts_per_s",
         ratio(static_cast<double>(b.insts()), typical.run), "insts/s"},
        {"setup_s", median(std::move(setups)), "s"},
        {"wall_s", typical.wall(), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
    };
}

std::vector<Metric>
countMetrics(const Counts &c)
{
    auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"sim.events", n(c.events), "count"},
        {"sim.stale_pops", n(c.stale_pops), "count"},
        {"sim.far_pops", n(c.far_pops), "count"},
        {"sim.oneshot_nodes", n(c.oneshot_nodes), "count"},
        {"cpu.insts", n(c.insts), "count"},
        {"cpu.cycles", n(c.cycles), "cycles"},
        {"cpu.stall_cycles", n(c.stall_cycles), "cycles"},
        {"cpu.sb_drained", n(c.sb_drained), "count"},
        {"core.epochs", n(c.epochs), "count"},
        {"core.commits", n(c.commits), "count"},
        {"core.rollbacks", n(c.rollbacks), "count"},
        {"core.discarded_insts", n(c.discarded_insts), "count"},
        {"core.commit_ratio", ratio(c.commits, c.epochs), "ratio"},
        {"mem.l1_accesses", n(c.l1_accesses), "count"},
        {"mem.l1_misses", n(c.l1_misses), "count"},
        {"mem.l1_hit_ratio", ratio(c.l1_hits, c.l1_accesses), "ratio"},
        {"mem.l1_prefetches", n(c.l1_prefetches), "count"},
        {"mem.dir_requests", n(c.dir_requests), "count"},
        {"mem.dir_dram_reads", n(c.dir_dram_reads), "count"},
        {"mem.dir_invs", n(c.dir_invs), "count"},
        {"mem.dir_fwds", n(c.dir_fwds), "count"},
        {"mem.net_msgs", n(c.net_msgs), "count"},
        {"mem.net_hops", n(c.net_hops), "count"},
        {"mem.net_hops_per_msg", ratio(c.net_hops, c.net_msgs), "hops/msg"},
        {"base.stats_samples", n(c.stats_samples), "count"},
    };
}

std::vector<Metric>
perLayerMetrics(const Bench &b)
{
    const auto traced = b.timedPasses(true);
    const PointTimes typical = typicalPass(traced);
    const Counts c = b.totals();
    std::vector<Metric> m = {
        {"harness.construct_s", typical.construct, "s"},
        {"harness.run_s", typical.run, "s"},
        {"harness.destroy_s", typical.destroy, "s"},
        {"workload.build_s", typical.build, "s"},
        {"workload.check_s", typical.check, "s"},
        {"sim.ns_per_event",
         ratio(typical.run * 1e9, static_cast<double>(c.events)), "ns"},
    };
    for (Metric &cm : countMetrics(c))
        m.push_back(std::move(cm));
    auto elapsed = [](const Pass &p) { return p.elapsed; };
    const double on = medianOver(traced, elapsed);
    const double off = medianOver(b.timedPasses(false), elapsed);
    m.push_back({"trace.overhead_pct", (ratio(on, off) - 1.0) * 100.0, "%"});
    return m;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (const Metric &m : metrics) {
        out += (out.size() > 1 ? ", " : "") + statistics::jsonQuote(m.name) +
               ": {\"value\": " + number(m.value) +
               ", \"unit\": " + statistics::jsonQuote(m.unit) + "}";
    }
    return out + "}";
}

/** CPUs this process may run on, as nproc(1) reports them. */
int
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set)
                                                       : 0;
}

std::string
contextJson(bool trace)
{
    std::ostringstream os;
    os << "{\"nproc\": " << hostCpus()
       << ", \"compiler\": " << statistics::jsonQuote(PERFBENCH_COMPILER)
       << ", \"build_type\": "
       << statistics::jsonQuote(provenance::buildType())
       << ", \"git\": " << statistics::jsonQuote(provenance::gitHash())
       << ", \"tracing\": " << (trace ? "true" : "false") << "}";
    return os.str();
}

/**
 * Per span name: how many, total and self seconds.  A span's self time
 * is its duration minus its children's.  Only "point" spans have
 * children, and they tile it, so a point's self time is zero.
 */
void
printSelfTimes(std::ostream &os, const std::vector<Span> &spans)
{
    struct Row
    {
        std::size_t count = 0;
        Clock::duration total{}, self{};
    };
    std::map<std::string, Row> rows;
    for (const Span &s : spans) {
        Row &r = rows[s.name];
        ++r.count;
        r.total += s.end - s.start;
        r.self += s.end - s.start;
        if (std::string(s.name) != "point")
            rows["point"].self -= s.end - s.start;
    }
    os << "spans (traced passes): name count total_s self_s\n";
    for (const auto &[name, r] : rows) {
        os << "  " << name << " " << r.count << " "
           << number(std::chrono::duration<double>(r.total).count()) << " "
           << number(std::chrono::duration<double>(r.self).count())
           << "\n";
    }
}

/** Chrome trace-event JSON (ui.perfetto.dev) of the recorded spans. */
bool
writeSpans(const std::string &path, const Bench &b,
           const std::string &context, Clock::time_point origin)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"otherData\": " << context << ",\n \"traceEvents\": [";
    bool first = true;
    for (const Span &s : b.spans()) {
        const double ts = seconds(origin, s.start) * 1e6;
        const double dur = seconds(s.start, s.end) * 1e6;
        os << (first ? "\n  " : ",\n  ") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << number(ts) << ", \"dur\": " << number(dur)
           << ", \"args\": {\"id\": " << s.point_id
           << ", \"pass\": " << s.pass << ", \"point\": "
           << statistics::jsonQuote(b.point(s.point).label) << "}}";
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

int
usage(const std::string &msg)
{
    std::cerr << "fl_perfbench: " << msg
              << "\nusage: fl_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n"
                 "workloads: f2_sweep mesh64_stream mesh64_shared "
                 "(self-test: f2_reference hang_probe l2_panic_repro)\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point origin = Clock::now();
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            return usage("expected --flag value pairs, got '" + key + "'");
        args[key.substr(2)] = argv[i + 1];
    }
    for (const auto &[key, value] : args) {
        if (key != "workload" && key != "seed" && key != "seconds" &&
            key != "trace" && key != "trace-out")
            return usage("unknown flag --" + key);
    }

    std::uint64_t seed = 0;
    double budget = 0;
    bool trace = false;
    try {
        std::size_t used = 0;
        seed = std::stoull(args["seed"], &used);
        if (used != args["seed"].size() || args["seed"][0] == '-')
            return usage("--seed must be a non-negative integer");
        budget = std::stod(args["seconds"]);
        if (!(budget >= 0))
            return usage("--seconds must be >= 0");
        if (args["trace"] != "0" && args["trace"] != "1")
            return usage("--trace must be 0 or 1");
        trace = args["trace"] == "1";
    } catch (const std::exception &) {
        return usage("--seed, --seconds and --trace take numbers");
    }

    PointSet set;
    const std::string name = args["workload"];
    if (!makePoints(name, seed, set))
        return usage("unknown workload '" + name + "'");

    Bench bench(std::move(set));
    bench.run(budget, trace);

    const std::string context = contextJson(trace);
    const bool correct = bench.failed() == 0;
    std::cout << "perfbench workload=" << name << " seed=" << seed
              << " points=" << bench.numPoints()
              << " passes=" << bench.passes().size() << "\n";
    std::cout << "context " << context << "\n";
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(bench.digest()));
    std::cout << "digest " << digest << "\n";
    std::cout << "counts";
    for (const Metric &m : countMetrics(bench.totals()))
        std::cout << " " << m.name << "=" << number(m.value);
    std::cout << "\n";

    const std::vector<Metric> metrics =
        trace ? perLayerMetrics(bench) : endToEndMetrics(bench);
    for (const Metric &m : metrics)
        std::cout << "metric " << m.name << " " << number(m.value) << " "
                  << m.unit << "\n";
    if (trace) {
        printSelfTimes(std::cout, bench.spans());
        const std::string path = args["trace-out"];
        if (!path.empty() && !writeSpans(path, bench, context, origin)) {
            std::cerr << "fl_perfbench: cannot write " << path << "\n";
            return 1;
        }
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << bench.attempted()
              << ", \"failed\": " << bench.failed()
              << ", \"metrics\": " << metricsJson(metrics) << "}"
              << std::endl;
    return 0;
}
