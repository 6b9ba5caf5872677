/**
 * @file
 * The fence-speculation controller: post-retirement speculation on
 * memory ordering in a conventional invalidation-based multiprocessor.
 *
 * When the core would stall for *ordering* (an SC load with buffered
 * stores, a draining fence, an atomic's buffer drain), the controller
 * instead checkpoints the architectural registers and lets the core
 * proceed speculatively:
 *
 *  - speculative loads/stores tag L1 blocks SR/SW (block granularity,
 *    epoch-id encoded, so commit and rollback are flash operations);
 *  - the commit condition is purely local: all stores up to the latest
 *    ordering-point watermark have drained to the cache.  No global
 *    arbitration (an optional latency models arbitration-based designs
 *    for comparison);
 *  - a conflicting coherence probe (remote write touching an SR/SW
 *    block, remote read touching an SW block) triggers rollback to the
 *    checkpoint; the ordering point then re-executes non-speculatively
 *    (one-shot cooldown), guaranteeing forward progress;
 *  - resource overflow (a cache set full of tagged blocks) either
 *    stalls the offending fill until the epoch ends or rolls back, per
 *    policy.
 *
 * Two operating modes: OnDemand enters an epoch only at an actual
 * ordering stall and commits at the earliest legal point; Continuous
 * keeps epochs open until a minimum instruction count (decoupling
 * ordering enforcement from the core at the cost of larger rollback
 * windows).
 *
 * The controller also implements the per-store-granularity comparator:
 * with Granularity::PerStore, speculative accesses draw from a bounded
 * store-queue/load-CAM budget and stall when it is exhausted -- the
 * storage-scaling contrast the block-granularity design removes.
 *
 * The controller keeps no waiters.  Every commit and rollback advances
 * the epoch id and calls Core::specExited(); a core stalled on the
 * epoch (a full budget, or Halt inside an epoch) wakes itself there.
 */

#pragma once

#include <cstdint>

#include "cpu/core.hh"
#include "mem/l1_cache.hh"
#include "mem/mem_request.hh"
#include "sim/sim_object.hh"

namespace fenceless::spec
{

enum class SpecMode
{
    Off,       //!< baseline: every ordering point stalls
    OnDemand,  //!< speculate only when the core would stall
    Continuous,//!< always speculating: epochs chain at every commit
};

enum class Granularity
{
    Block,    //!< SR/SW bits per L1 block (the proposed design)
    PerStore, //!< bounded speculative store queue + load CAM comparator
};

enum class OverflowPolicy
{
    Stall,    //!< park the fill until the epoch ends (when safe)
    Rollback, //!< roll back immediately
};

const char *specModeName(SpecMode m);
const char *granularityName(Granularity g);
const char *overflowPolicyName(OverflowPolicy p);

/** Why an epoch was rolled back. */
enum class RollbackCause
{
    RemoteWrite,   //!< Inv/FwdGetM hit an SR or SW block
    RemoteRead,    //!< FwdGetS/Recall hit an SW block
    Overflow,      //!< speculative-tag eviction pressure
    NumCauses,
};

const char *rollbackCauseName(RollbackCause c);

class SpecController : public sim::SimObject,
                       public cpu::SpecInterface,
                       public mem::SpecHooks
{
  public:
    struct Params
    {
        SpecMode mode = SpecMode::Off;
        Granularity granularity = Granularity::Block;
        OverflowPolicy overflow = OverflowPolicy::Stall;
        /**
         * Continuous mode: the minimum epoch length before a commit is
         * attempted.  1 = commit at every drain point (and chain into
         * the next epoch immediately); larger floors trade commit
         * frequency for rollback-window size.
         */
        std::uint64_t min_epoch_insts = 1;
        Cycles commit_arb_latency = 0; //!< models arbitration-based commit
        unsigned ps_store_queue = 16;  //!< PerStore: store-queue capacity
        unsigned ps_load_cam = 32;     //!< PerStore: load-CAM capacity
        /**
         * Rollback backoff cap: after k consecutive rollbacks the next
         * min(2^k, cap) ordering points execute non-speculatively, so
         * conflict-heavy phases degrade to baseline behaviour instead
         * of thrashing ("speculating only when necessary to minimize
         * the risk of rollback-inducing violations").
         */
        unsigned max_cooldown = 64;
    };

    SpecController(sim::SimContext &ctx, const std::string &name,
                   const Params &params, cpu::Core &core,
                   mem::L1Cache &l1);

    const Params &params() const { return params_; }

    // --- cpu::SpecInterface ----------------------------------------------

    bool shouldSpeculate(OrderPoint point) override;
    bool inSpec() const override { return in_spec_; }
    std::uint32_t epoch() const override { return epoch_; }
    void requestStop() override;
    bool reserveSpecSlot(bool is_store) override;
    void storeDrained() override;

    // --- mem::SpecHooks ---------------------------------------------------

    bool specActive() const override { return in_spec_; }
    std::uint32_t specEpoch() const override { return epoch_; }
    void specConflict(Addr block_addr, bool remote_write,
                      bool had_sw) override;
    bool specOverflow(Addr block_addr, bool needed_for_commit) override;

    // --- queries (tests / benches) ----------------------------------------

    std::uint64_t commits() const { return stat_commits_.count(); }
    std::uint64_t rollbacks() const { return stat_rollbacks_.count(); }
    std::uint64_t epochsStarted() const { return stat_epochs_.count(); }
    std::uint64_t maxStoresPerEpoch() const
    {
        return stat_max_stores_.count();
    }
    std::uint64_t maxSwBlocks() const { return stat_max_sw_.count(); }
    std::uint64_t maxSrBlocks() const { return stat_max_sr_.count(); }

    // --- stall-dossier inspection ------------------------------------------

    Tick epochStartTick() const { return epoch_start_tick_; }
    std::uint64_t watermark() const { return watermark_; }
    unsigned cooldown() const { return cooldown_; }
    unsigned consecutiveRollbacks() const
    {
        return consecutive_rollbacks_;
    }

  private:
    void beginEpoch();
    void noteCrossing();
    void tryCommit();
    void doCommit();

    /**
     * Squash the current epoch.  @p trigger_addr is the block address
     * whose coherence probe / overflow forced the rollback (0 when no
     * single address is responsible), recorded for waste attribution.
     */
    void rollback(RollbackCause cause, Addr trigger_addr);
    std::uint64_t epochInsts() const;

    Params params_;
    cpu::Core &core_;
    mem::L1Cache &l1_;
    prof::WasteProfiler *const prof_; //!< null when profiling is off

    bool in_spec_ = false;
    Tick epoch_start_tick_ = 0; //!< when the current epoch began
    std::uint32_t epoch_ = 1; //!< 0 is reserved as "never speculative"
    std::uint64_t watermark_ = 0; //!< SB seq the commit must wait for
    cpu::Core::ArchSnapshot ckpt_{};
    std::uint64_t ckpt_seq_ = 0;  //!< SB seq at checkpoint (rollback keep)
    unsigned cooldown_ = 0;       //!< ordering points to run non-spec
    unsigned consecutive_rollbacks_ = 0; //!< backoff exponent
    unsigned commit_streak_ = 0;         //!< commits since last rollback
    bool stop_requested_ = false;
    bool overflow_pending_ = false;
    bool commit_scheduled_ = false;

    // Per-epoch resource accounting (PerStore limits; Block stats).
    unsigned epoch_stores_ = 0;
    unsigned epoch_loads_ = 0;

    statistics::Scalar &stat_epochs_;
    statistics::Scalar &stat_epochs_sc_load_;
    statistics::Scalar &stat_epochs_fence_;
    statistics::Scalar &stat_epochs_amo_;
    statistics::Scalar &stat_commits_;
    statistics::Scalar &stat_rollbacks_;
    std::array<statistics::Scalar *,
               static_cast<std::size_t>(RollbackCause::NumCauses)>
        stat_rollback_cause_{};
    statistics::Scalar &stat_discarded_insts_;
    statistics::Scalar &stat_crossings_;
    statistics::Scalar &stat_spec_limit_stalls_;
    statistics::Scalar &stat_overflow_commits_;
    statistics::Distribution &stat_epoch_insts_;
    statistics::Distribution &stat_epoch_stores_;
    statistics::Distribution &stat_epoch_sw_blocks_;
    statistics::Distribution &stat_epoch_sr_blocks_;
    statistics::Scalar &stat_max_stores_;
    statistics::Scalar &stat_max_sw_;
    statistics::Scalar &stat_max_sr_;
};

/**
 * Dedicated speculative-state storage (bytes) each design needs --
 * the quantity Table T3 reports.
 */
struct StorageModel
{
    /** Block granularity: 2 tag bits per L1 block + one checkpoint. */
    static std::uint64_t
    blockGranularityBytes(std::uint64_t l1_blocks)
    {
        const std::uint64_t tag_bits = 2 * l1_blocks;
        const std::uint64_t checkpoint = 32 * 8 + 8; // regs + pc
        return (tag_bits + 7) / 8 + checkpoint;
    }

    /**
     * Per-store granularity: a store-queue entry (address + data +
     * metadata) per speculative store and a CAM entry per tracked load,
     * plus the same checkpoint.  Grows linearly with speculation depth.
     */
    static std::uint64_t
    perStoreBytes(std::uint64_t store_depth, std::uint64_t load_depth)
    {
        const std::uint64_t store_entry = 8 + 8 + 2;
        const std::uint64_t cam_entry = 8;
        const std::uint64_t checkpoint = 32 * 8 + 8;
        return store_depth * store_entry + load_depth * cam_entry
               + checkpoint;
    }
};

} // namespace fenceless::spec
