/**
 * @file
 * Waste-attribution profiler: per-static-instruction cycle accounting,
 * per-cache-line contention profiling, and per-rollback-cause
 * attribution for one simulated system.
 *
 * The paper frames lost performance as identifiable categories of
 * waste; this profiler answers *which guest code and which cache line*
 * each category charges to.  Three views:
 *
 *  - per-PC cycles, split into execute / fence-stall / store-buffer-
 *    full / miss-wait / rollback-discarded buckets, indexed by the
 *    DecodedProgram instruction index and symbolized via assembler
 *    labels;
 *  - per-line contention: touches, invalidations received, sharer
 *    ping-pong transitions at the directory, and false-sharing
 *    detection from the sub-block (8-byte slot) offsets each core
 *    touched;
 *  - rollbacks keyed by (cause, victim PC, triggering line) with
 *    discarded-instruction counts.
 *
 * Ownership and threading mirror trace::TraceSink: one profiler per
 * SimContext, driven by that context's single host thread, so
 * host-parallel sweeps need no locking and stay TSan-clean.  Disabled
 * cost is one cached-pointer null test per site (components cache
 * `ifEnabled()` once, at construction).
 *
 * Cycles spent inside a speculative epoch are *staged* per core and
 * only merged into the main per-PC buckets when the epoch commits; a
 * rollback moves every staged cycle into the rollback-discarded bucket
 * of the PC that accrued it, so wrong-path work is charged to the code
 * that performed it, not hidden.
 *
 * The profiler itself stays independent of the ISA layer: the harness
 * passes label/symbol tables in as plain vectors at configure() time.
 */

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "base/types.hh"

namespace fenceless::prof
{

/** Where a core's cycles went (the waste taxonomy). */
enum class CycleBucket : std::uint8_t
{
    Execute,           //!< retiring instructions (useful work)
    FenceStall,        //!< ordering stalls: fences, SC loads, atomics
    SbFull,            //!< store waiting for a store-buffer slot
    MissWait,          //!< waiting on the memory system
    RollbackDiscarded, //!< speculative work squashed by a rollback
    NumBuckets,
};

constexpr std::size_t num_buckets =
    static_cast<std::size_t>(CycleBucket::NumBuckets);

/**
 * Version of the --profile-out JSON layout (see stats_schema_version
 * for the bump policy).  History:
 *   1  first versioned layout (PR 9).
 */
constexpr int profile_schema_version = 1;

const char *cycleBucketName(CycleBucket b);

/** A code label for symbolization (instruction index -> name). */
struct CodeSym
{
    std::uint64_t pc;
    std::string name;
};

/** A data symbol for line symbolization (address range -> name). */
struct DataSym
{
    Addr addr;
    std::uint64_t size;
    std::string name;
};

/**
 * A rendered, mergeable profile snapshot.  All three views are keyed
 * by symbol strings in sorted maps, so merging per-configuration
 * profiles on the sweep's main thread -- in submission order -- yields
 * byte-identical output for any --jobs=N.
 */
struct Profile
{
    struct PcRow
    {
        std::uint64_t pc = 0;    //!< representative instruction index
        std::uint64_t execs = 0; //!< committed executions
        std::array<std::uint64_t, num_buckets> cycles{};

        /** Cycles in every bucket except Execute. */
        std::uint64_t wasted() const;
    };

    struct LineRow
    {
        Addr addr = 0;
        std::uint64_t touches = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t ping_pongs = 0;
        std::uint32_t cores_touched = 0;
        /**
         * >= 2 cores touched the line but no 8-byte slot was touched
         * by more than one core: the contention is purely spatial.
         */
        bool false_sharing = false;
    };

    struct RollbackRow
    {
        std::string cause;      //!< rollbackCauseName()
        std::string victim;     //!< symbolized victim PC
        std::string line;       //!< symbolized triggering line
        std::uint64_t count = 0;
        std::uint64_t discarded_insts = 0;
    };

    std::map<std::string, PcRow> pcs;
    std::map<std::string, LineRow> lines;
    std::map<std::string, RollbackRow> rollbacks;

    bool
    empty() const
    {
        return pcs.empty() && lines.empty() && rollbacks.empty();
    }

    /** Whole-run cycles per bucket: exact sums over pcs. */
    std::array<std::uint64_t, num_buckets> bucketTotals() const;

    /** Sum @p other into this profile (rows with equal keys merge). */
    void merge(const Profile &other);

    /** All three views as one JSON document. */
    void writeJson(std::ostream &os) const;

    /**
     * Per-PC cycles as folded stacks ("frame;frame value" lines),
     * directly consumable by flamegraph.pl / speedscope / inferno.
     */
    void writeFolded(std::ostream &os) const;

    /**
     * Human-readable waste report ("the ten ways" summary): the
     * bucketTotals() block, then the top-N tables.
     */
    void writeReport(std::ostream &os, std::size_t top_n = 10) const;
};

class WasteProfiler
{
  public:
    /**
     * Enable profiling for a system of @p num_pcs static instructions
     * and @p num_cores cores.  Must be called before the components
     * cache their ifEnabled() pointer (i.e. before construction).
     */
    void configure(std::size_t num_pcs, std::uint32_t num_cores,
                   unsigned block_size, std::vector<CodeSym> code_syms,
                   std::vector<DataSym> data_syms);

    bool enabled() const { return enabled_; }

    /**
     * The pointer hot paths cache: null when profiling is disabled, so
     * the per-site disabled cost is one null test.
     */
    WasteProfiler *
    ifEnabled()
    {
        return enabled_ ? this : nullptr;
    }

    // --- core-side hot path ---------------------------------------------

    /**
     * Charge @p cycles at @p pc to @p bucket.  With @p spec set the
     * charge is staged and only lands on commitEpoch(); rollbackEpoch()
     * converts it to RollbackDiscarded instead.
     */
    void
    addCycles(std::uint32_t core, std::uint64_t pc, CycleBucket b,
              std::uint64_t cycles, bool spec)
    {
        if (spec) {
            staged_[core].push_back(
                {pc, static_cast<std::uint8_t>(b), cycles});
            return;
        }
        pc_cycles_[pc * num_buckets + static_cast<std::size_t>(b)] +=
            cycles;
        if (b == CycleBucket::Execute)
            ++pc_execs_[pc];
    }

    // --- memory-side hot path -------------------------------------------

    /** A load/store/AMO from @p core hit bytes of a cache line. */
    void
    touchLine(std::uint32_t core, Addr line, unsigned offset,
              unsigned size)
    {
        LineData &ld = lineData(core, line);
        ++ld.touches;
        const unsigned lo = offset >> 3;
        const unsigned hi = (offset + size - 1) >> 3;
        ld.core_slots[core] |=
            (((2ull << (hi - lo)) - 1ull) << lo);
    }

    // --- coherence events (rare) ----------------------------------------

    /** An Inv probe arrived for @p line. */
    void lineInvalidated(Addr line);

    /**
     * Ownership or access to @p line moved between cores at the
     * directory (FwdGetS/FwdGetM/Inv-broadcast service).
     */
    void linePingPong(Addr line);

    // --- epoch lifecycle (called by the speculation controller) ---------

    /** The core's epoch committed: staged charges become real. */
    void commitEpoch(std::uint32_t core);

    /**
     * The core's epoch rolled back: staged charges become
     * RollbackDiscarded, and one rollback record is accumulated under
     * (@p cause, @p victim_pc, @p trigger_line).
     */
    void rollbackEpoch(std::uint32_t core, const char *cause,
                       Addr trigger_line, std::uint64_t victim_pc,
                       std::uint64_t discarded_insts);

    // --- snapshot --------------------------------------------------------

    /**
     * Render the accumulated data as a symbolized, mergeable Profile.
     * A non-empty @p scope prefixes every key ("scope;symbol"), so
     * profiles of different configurations merge without colliding.
     */
    Profile snapshot(const std::string &scope = "") const;

  private:
    struct Staged
    {
        std::uint64_t pc;
        std::uint8_t bucket;
        std::uint64_t cycles;
    };

    struct LineData
    {
        std::uint64_t touches = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t ping_pongs = 0;
        std::vector<std::uint64_t> core_slots; //!< 8B-slot masks per core
    };

    LineData &
    lineData(std::uint32_t core, Addr line)
    {
        auto &[cached_line, cached] = line_cache_[core];
        if (cached && cached_line == line)
            return *cached;
        LineData &ld = lineDataSlow(line);
        cached_line = line;
        cached = &ld;
        return ld;
    }

    LineData &lineDataSlow(Addr line);

    std::string symbolizePc(std::uint64_t pc) const;
    std::string symbolizeLine(Addr line) const;

    bool enabled_ = false;
    std::uint32_t num_cores_ = 0;
    std::vector<std::uint64_t> pc_cycles_; //!< [pc * num_buckets + b]
    std::vector<std::uint64_t> pc_execs_;
    std::vector<std::vector<Staged>> staged_;          //!< per core
    std::unordered_map<Addr, LineData> lines_;
    std::vector<std::pair<Addr, LineData *>> line_cache_; //!< per core
    std::map<std::tuple<std::string, std::uint64_t, Addr>,
             std::pair<std::uint64_t, std::uint64_t>>
        rollbacks_; //!< (cause, victim pc, line) -> (count, discarded)
    std::vector<CodeSym> code_syms_; //!< sorted by pc
    std::vector<DataSym> data_syms_; //!< sorted by addr
};

} // namespace fenceless::prof
