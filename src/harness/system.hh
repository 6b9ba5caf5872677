/**
 * @file
 * Whole-system assembly: N cores with private L1s, a shared L2 with
 * directory, an interconnect, DRAM, and (optionally) one fence-
 * speculation controller per core.  This is the public entry point the
 * examples, tests and benchmarks build on.
 *
 * One System is one sim::SimContext driven by one host thread.  Host
 * parallelism lives a level up, in SweepRunner (--jobs): independent
 * simulations share nothing, so a sweep scales with the host while each
 * simulation stays a plain sequential event loop.
 */

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/flat_memory.hh"
#include "core/spec_controller.hh"
#include "cpu/core.hh"
#include "isa/decoded.hh"
#include "isa/program.hh"
#include "mem/directory.hh"
#include "mem/l1_cache.hh"
#include "mem/network.hh"
#include "sim/sim_object.hh"
#include "sim/waitgraph.hh"

namespace fenceless::harness
{

/** Everything configurable about a simulated system. */
struct SystemConfig
{
    std::uint32_t num_cores = 4;
    cpu::ConsistencyModel model = cpu::ConsistencyModel::TSO;
    unsigned sb_size = 16;
    unsigned sb_max_inflight = 4;   //!< relaxed-drain overlap (RMO)
    unsigned sb_prefetch_depth = 4; //!< store ownership prefetching
    spec::SpecController::Params spec; //!< spec.mode == Off -> baseline
    mem::L1Cache::Params l1;
    mem::Directory::Params l2;
    mem::Network::Params net;
    std::uint64_t max_cycles = 500'000'000;

    /**
     * Directory banks (power of two, 1..64).  `l2.size` is the *total*
     * L2 capacity; each bank gets a 1/dir_banks slice and its own DRAM
     * channel.  Blocks interleave across banks by block index
     * (mem::DirectoryMap).  1 keeps the classic monolithic directory.
     */
    std::uint32_t dir_banks = 1;

    /**
     * Record every structured-trace event kind for exportTrace().  Off
     * (default), instrumentation costs one inline mask test per site.
     */
    bool tracing = false;

    /**
     * Periodic stat-snapshot interval in cycles (0 = off).  Each
     * snapshot renders the full registry as JSON; the time series is
     * embedded in writeStatsJson() output.
     */
    Tick stats_interval = 0;

    /**
     * Enable the waste-attribution profiler (per-PC cycle buckets,
     * per-line contention, rollback causes; see sim/profiler.hh).
     * Disabled (default) costs one null test per instrumentation site.
     */
    bool profile = false;

    /**
     * Flight-recorder depth: the last N structured events per component
     * are kept in a fixed ring (rounded up to a power of two) and
     * dumped on panic, watchdog abort, or demand (`--blackbox-out`).
     * On by default -- the ring records only the low-frequency event
     * kinds (see trace::ring_kinds); its cost is about 3% on 4 cores
     * and 14-17% on the 64-core mesh (DESIGN.md section 7.5).  0
     * disables the recorder.
     */
    std::size_t blackbox_records = 256;

    /**
     * Per-request span tracing (tail-latency observability, see
     * sim/reqtrace.hh): sample 1 in N misses (0 = off, 1 = every
     * miss).  Sampling is a pure hash of the request id, so the
     * sampled set -- and every derived artifact -- is byte-identical
     * run to run and across host-parallel sweeps.  Off costs one
     * cached-pointer null test per stage site.
     */
    std::uint64_t tail_sample = 0;

    /**
     * Hang-watchdog probe interval in cycles (0 disables).  If a whole
     * interval passes in which no core retires an instruction, the run
     * aborts with a stall dossier instead of spinning to max_cycles.
     * A queue that drains before every core halts keeps the run alive
     * until the next probe; with no probe it is a hang at once.
     */
    Tick watchdog_interval = 100'000;

    /** Convenience: enable on-demand block-granularity speculation. */
    SystemConfig &
    withSpeculation(spec::SpecMode mode = spec::SpecMode::OnDemand)
    {
        spec.mode = mode;
        return *this;
    }

    /** Convenience: enable structured tracing. */
    SystemConfig &
    withTracing()
    {
        tracing = true;
        return *this;
    }

    /** Convenience: enable the waste-attribution profiler. */
    SystemConfig &
    withProfiling()
    {
        profile = true;
        return *this;
    }

    /** Convenience: bank the directory @p n ways. */
    SystemConfig &
    withDirBanks(std::uint32_t n)
    {
        dir_banks = n;
        return *this;
    }

    /** Convenience: select the interconnect topology. */
    SystemConfig &
    withTopology(mem::Topology t)
    {
        net.topology = t;
        return *this;
    }

    /** Convenience: enable per-request span tracing. */
    SystemConfig &
    withTailTrace(std::uint64_t period = 1)
    {
        tail_sample = period;
        return *this;
    }
};

class System
{
  public:
    /** One periodic stat snapshot (pre-rendered groups JSON). */
    struct StatSnapshot
    {
        Tick tick;
        std::string groups_json;
    };

    System(const SystemConfig &config, const isa::Program &prog);

    /**
     * Run until every core halts, the run hangs (see hung()) or the
     * cycle budget is exhausted.
     * @return true if all cores halted
     */
    bool run();

    /** Cycle the last core halted at (the parallel runtime). */
    Tick runtimeCycles() const;

    /** Current simulated tick. */
    Tick curTick() const { return ctx_.curTick(); }

    /**
     * Functional read of the coherent memory image: the owning L1's
     * copy if one exists, else the L2 copy, else DRAM.  The owner is
     * the one the home directory bank records, so the system must be
     * quiesced (as it is after a successful run()).
     */
    std::uint64_t debugRead(Addr addr, unsigned size) const;

    /** A workload::MemReader over debugRead. */
    std::function<std::uint64_t(Addr, unsigned)>
    memReader() const
    {
        return [this](Addr a, unsigned s) { return debugRead(a, s); };
    }

    std::uint32_t numCores() const { return config_.num_cores; }
    cpu::Core &core(std::uint32_t i) { return *cores_.at(i); }
    const cpu::Core &core(std::uint32_t i) const { return *cores_.at(i); }
    mem::L1Cache &l1(std::uint32_t i) { return *l1s_.at(i); }

    /** Directory banks actually built (config dir_banks). */
    std::uint32_t dirBanks() const
    {
        return static_cast<std::uint32_t>(dirs_.size());
    }
    mem::Directory &directoryBank(std::uint32_t b) { return *dirs_.at(b); }
    const mem::Directory &directoryBank(std::uint32_t b) const
    {
        return *dirs_.at(b);
    }
    /** Bank 0 -- the whole directory when dir_banks == 1. */
    mem::Directory &directory() { return *dirs_.at(0); }

    /** The speculation controller for core @p i (null when disabled). */
    spec::SpecController *specController(std::uint32_t i)
    {
        return specs_.empty() ? nullptr : specs_.at(i).get();
    }

    statistics::StatRegistry &stats() { return ctx_.stats; }
    const statistics::StatRegistry &stats() const { return ctx_.stats; }
    sim::SimContext &context() { return ctx_; }

    // --- observability ---------------------------------------------------

    /** The structured-trace sink (and flight recorder). */
    trace::TraceSink &tracer() { return ctx_.tracer; }
    const trace::TraceSink &tracer() const { return ctx_.tracer; }

    const std::vector<StatSnapshot> &snapshots() const
    {
        return snapshots_;
    }

    /**
     * Write the recorded structured trace and the sampled request
     * spans as Chrome trace-event JSON (open in ui.perfetto.dev or
     * chrome://tracing), stamped with build provenance.  Records are
     * in the canonical order the flight recorder uses too
     * (trace::sortCanonical).
     */
    void exportTrace(std::ostream &os) const;

    // --- incident forensics ----------------------------------------------

    /**
     * @return true if the last run() ended as a hang: a watchdog probe
     * found a whole window without retirement, or the event queue
     * drained before every core halted with no probe armed.
     */
    bool hung() const { return hang_.has_value(); }

    /**
     * The stall dossier captured when the run hung (empty otherwise):
     * per-core architectural state, the wait-for graph with deadlock
     * cycles highlighted, and the flight-recorder tail.
     */
    const std::string &dossier() const { return dossier_; }

    /**
     * Write a stall dossier for the system's *current* state (callable
     * at any point, not just after a watchdog abort).
     */
    void writeStallDossier(std::ostream &os) const;

    /**
     * Write the flight-recorder contents as a Chrome trace-event JSON
     * document -- the same format as exportTrace, so the dump replays
     * through the same tooling.
     */
    void writeBlackbox(std::ostream &os) const;

    /** Write the human-readable flight-recorder tail. */
    void writeBlackboxTail(std::ostream &os,
                           std::size_t per_component = 8) const;

    /**
     * Walk every blocking component and register who-waits-on-whom
     * edges (see sim/waitgraph.hh).  Deterministic: iteration follows
     * index and address order only.
     */
    void buildWaitGraph(sim::WaitGraph &g) const;

    /** "label+offset" for a code pc, or "" when no label covers it. */
    std::string symbolizePc(std::uint64_t pc) const;

    /**
     * Write the full stat registry -- and the periodic snapshot time
     * series, if `stats_interval` was set -- as one JSON document:
     * `{"groups": {...}, "snapshots": [{"tick": N, "groups": ...}]}`.
     */
    void writeStatsJson(std::ostream &os) const;

    // --- tail-latency observability --------------------------------------

    /**
     * The assembled request spans of the last run (empty unless
     * `config.tail_sample` was set), in canonical (req id, tick)
     * order.
     */
    const reqtrace::SpanSet &tailSpans() const { return tail_spans_; }

    /** The critical-path stage attribution of the sampled spans. */
    const reqtrace::TailAttribution &
    tailAttribution() const
    {
        return tail_attr_;
    }

    /**
     * Write the critical-path stage-attribution table: per-stage
     * contribution percentiles (p50/p95/p99/p99.9), cycle shares that
     * reconcile exactly with the spans' end-to-end latencies, and the
     * tail-ownership ranking (which stage dominates above-p99 spans).
     * No-op (with a notice) when span tracing was off.
     */
    void writeTailReport(std::ostream &os) const;

    /**
     * Write the top-K slowest-request dossiers as JSON: per-stage
     * timeline, symbolized issuing PC, home directory bank, and the
     * hottest link on the request's route (ring/mesh).  K is 10;
     * selection is ordered by (latency desc, req id asc), so the
     * document is deterministic.
     */
    void writeOutliers(std::ostream &os) const;

    /**
     * Symbolized waste profile of the run (empty unless
     * `config.profile` was set).  A non-empty @p scope prefixes every
     * key so profiles of different configurations merge cleanly.
     */
    prof::Profile profile(const std::string &scope = "") const;

    std::uint64_t totalInstructions() const;

    /** Aggregate counters handy for benches (summed over cores). */
    std::uint64_t totalCommits() const;
    std::uint64_t totalRollbacks() const;

    /** @return true when no miss/transaction/event remains in flight. */
    bool quiesced() const;

    /**
     * Audit the coherence invariants (single writer, inclusive L2,
     * directory/sharer agreement, S-block data == L2 data).  Must be
     * called on a quiesced system; panics on the first violation.
     */
    void auditCoherence() const;

    const SystemConfig &config() const { return config_; }

    /**
     * The build-provenance JSON embedded in stats/trace/blackbox
     * output, extended with a "sim_mode" stanza recording the machine
     * shape (dir_banks, topology).
     */
    std::string provenanceJson() const;

  private:
    /** How the last run() hung: what the dossier reports. */
    struct Hang
    {
        bool drained;       //!< the queue drained; else a probe fired
        Tick window_begin;  //!< the probe's window is [window_begin, at]
        Tick at;            //!< the tick the run stopped at
        std::uint64_t instret; //!< total retired at `at`
        std::uint64_t rollbacks_in_window;
    };

    bool allHalted() const;
    std::vector<prof::CodeSym> codeSyms() const;
    std::vector<prof::DataSym> dataSyms() const;

    void takeSnapshot(Tick tick);
    /** End the run as @p hang: capture the dossier and report it. */
    void declareHang(const Hang &hang);
    void writeArchState(std::ostream &os) const;
    void finalizeTailTrace();

    SystemConfig config_;
    isa::Program prog_;
    /** prog_'s execution classes, decoded once for every core. */
    isa::DecodedProgram decoded_;
    /** Routes each block to its home bank, for the L1s and for us. */
    mem::DirectoryMap dirmap_;

    // Precedes every component: reverse destruction order tears the
    // components down before the queue, sinks and registry they use.
    sim::SimContext ctx_;

    FlatMemory backing_;
    std::vector<StatSnapshot> snapshots_;

    std::unique_ptr<mem::Network> network_;
    std::vector<std::unique_ptr<mem::Directory>> dirs_;
    std::vector<std::unique_ptr<mem::L1Cache>> l1s_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::vector<std::unique_ptr<spec::SpecController>> specs_;

    std::optional<Hang> hang_;
    std::string dossier_;

    // Tail-latency observability (populated by finalizeTailTrace()).
    reqtrace::SpanSet tail_spans_;
    reqtrace::TailAttribution tail_attr_;
    bool tail_finalized_ = false;
    /** "tailtrace" stat group members (null when tracing is off). */
    statistics::Scalar *tail_stat_spans_ = nullptr;
    statistics::Scalar *tail_stat_waiters_ = nullptr;
    statistics::Scalar *tail_stat_incomplete_ = nullptr;
    statistics::Scalar *tail_stat_retries_ = nullptr;
    statistics::Distribution *tail_stat_e2e_ = nullptr;
    std::vector<statistics::Distribution *> tail_stat_stage_;
};

} // namespace fenceless::harness
