/**
 * @file
 * The in-order timing core.
 *
 * One instruction per cycle when nothing stalls.  Loads block until the
 * L1 responds (or forward from the store buffer); stores retire into the
 * store buffer; atomics execute at the L1 after their ordering
 * requirement is met; fences behave per the consistency model.
 *
 * Every point where the baseline model would stall for *ordering* (an SC
 * load with buffered stores, a draining fence, an atomic's buffer drain)
 * is first offered to the speculation controller, which may let the core
 * proceed speculatively instead.  The controller can snapshot and
 * restore the core's architectural state; in-flight memory responses
 * from before a restore are ignored via a squash generation counter.
 *
 * The core runs one cycle per tick() and schedules the next as a
 * one-shot event.  Like every other callback the core schedules, the
 * pending tick captures the squash generation, so a rollback orphans it
 * (it fires and returns) rather than cancelling it.
 *
 * What a stalled core waits for lives in one wait slot: the outstanding
 * load or atomic, or a condition on store-buffer or epoch state.  The
 * store buffer and the speculation controller call storeDrained() and
 * specExited() when that state changes, and the core wakes itself if
 * its wait now holds.
 */

#pragma once

#include <array>
#include <cstdint>

#include "cpu/consistency.hh"
#include "cpu/store_buffer.hh"
#include "isa/decoded.hh"
#include "isa/program.hh"
#include "mem/l1_cache.hh"
#include "sim/sim_object.hh"

namespace fenceless::cpu
{

/** Why the core is not executing this cycle (for stall accounting). */
enum class StallReason
{
    ScLoadOrder, //!< SC: load waiting for the store buffer to drain
    FenceDrain,  //!< full fence waiting for the store buffer to drain
    AmoOrder,    //!< atomic waiting for its ordering requirement
    AmoData,     //!< atomic waiting for an overlapping buffered store
    SbFull,      //!< store waiting for a store-buffer slot
    LoadAccess,  //!< load waiting for the memory system
    AmoAccess,   //!< atomic executing at the L1
    FwdConflict, //!< load partially overlapping a buffered store
    HaltDrain,   //!< halt waiting for drain / speculation exit
    SpecLimit,   //!< per-store-granularity speculative storage exhausted
    NumReasons,
};

const char *stallReasonName(StallReason r);

/**
 * The core's view of the speculation controller.  A null controller
 * means baseline (no speculation): every ordering point stalls.
 */
class SpecInterface
{
  public:
    /** The kind of ordering point the core is about to stall on. */
    enum class OrderPoint
    {
        ScLoad,
        FullFence,
        Amo,
    };

    virtual ~SpecInterface() = default;

    /**
     * Called when an ordering requirement is unsatisfied.  If the
     * controller is already speculating it records the crossing
     * (advancing its commit watermark) and returns true; otherwise it
     * may begin an epoch (checkpointing the core) and return true, or
     * return false to make the core stall as in the baseline.
     */
    virtual bool shouldSpeculate(OrderPoint point) = 0;

    /** @return true while the core runs inside a speculative epoch. */
    virtual bool inSpec() const = 0;

    /** @return the current epoch id (tags accesses). */
    virtual std::uint32_t epoch() const = 0;

    /**
     * The core reached Halt while speculating: commit as soon as the
     * commit condition allows and do not open another epoch.  The
     * commit ends the epoch the core waits out (Core::specExited).  A
     * rollback in between cancels the request (the core re-executes
     * and will re-request).
     */
    virtual void requestStop() = 0;

    /**
     * Reserve speculative-storage capacity for one access of the
     * current epoch.  Always succeeds at block granularity (the tags
     * live in the cache); at per-store granularity it fails once the
     * bounded speculative store queue / load CAM is full, and the core
     * must stall until the epoch ends.
     */
    virtual bool reserveSpecSlot(bool is_store) = 0;

    /** A store-buffer entry completed: the commit condition may hold. */
    virtual void storeDrained() = 0;
};

class Core : public sim::SimObject
{
  public:
    struct Params
    {
        ConsistencyModel model = ConsistencyModel::TSO;
        unsigned sb_size = 16;
        unsigned sb_max_inflight = 4;    //!< relaxed-drain overlap
        unsigned sb_prefetch_depth = 4;  //!< ownership-prefetch window
    };

    /**
     * A core running @p prog, whose execution classes @p decoded holds;
     * both are shared by every core of a machine and must outlive it.
     */
    Core(sim::SimContext &ctx, const std::string &name,
         const Params &params, CoreId core_id, const isa::Program &prog,
         const isa::DecodedProgram &decoded, mem::L1Cache &l1,
         std::uint32_t num_cores);

    void setSpec(SpecInterface *spec) { spec_ = spec; }

    /** Initialise architectural state and schedule the first cycle. */
    void reset();

    bool halted() const { return halted_; }

    CoreId coreId() const { return core_id_; }
    ConsistencyModel model() const { return params_.model; }
    StoreBuffer &storeBuffer() { return sb_; }
    const StoreBuffer &storeBuffer() const { return sb_; }
    mem::L1Cache &l1() { return l1_; }
    std::uint64_t instret() const { return instret_; }

    /** Current program counter (instruction index), for debugging. */
    std::uint64_t pc() const { return pc_; }

    std::uint64_t
    reg(isa::RegId r) const
    {
        return r == 0 ? 0 : regs_[r];
    }

    // --- speculation-controller API -------------------------------------

    /** A register-file checkpoint. */
    struct ArchSnapshot
    {
        std::array<std::uint64_t, isa::num_regs> regs;
        std::uint64_t pc;
        std::uint64_t instret;
    };

    ArchSnapshot snapshot() const;

    /**
     * @return true while an atomic is executing at the L1.  A
     * checkpoint taken in that window would re-execute the (non-
     * idempotent) atomic after a rollback, so the controller must not
     * open an epoch then.
     */
    bool amoInFlight() const { return wait_.kind == WaitKind::Amo; }

    /**
     * Restore a checkpoint and resume execution next cycle.  The wait
     * slot is cleared, and in-flight memory responses and a pending
     * tick become stale.
     */
    void restoreAndResume(const ArchSnapshot &snap);

    // --- wake calls -----------------------------------------------------

    /**
     * A store-buffer entry completed (called by the store buffer).
     * Lets the speculation controller try its commit, then wakes a
     * store-buffer wait whose condition now holds.
     */
    void storeDrained();

    /**
     * The current epoch committed or rolled back (called by the
     * speculation controller).  Wakes an epoch-exit wait.
     */
    void specExited();

    // --- stall-dossier inspection ---------------------------------------
    // Read-only views of the wait slot, walked at dossier time by
    // harness::System.  They cost nothing on the execution path.

    /** What the core's wait slot holds. */
    enum class WaitKind : std::uint8_t
    {
        None,
        Load,        //!< a load outstanding in the memory system
        Amo,         //!< an atomic executing at the L1
        SbEmpty,     //!< the store buffer to drain completely
        SbSpace,     //!< a free store-buffer slot
        SbNoOverlap, //!< no buffered store overlapping the access
        SpecExit,    //!< the recorded epoch to commit or roll back
    };

    /** @return true if the core is asleep (not halted, no tick queued). */
    bool idle() const { return !halted_ && !tick_pending_; }

    WaitKind waitKind() const { return wait_.kind; }
    StallReason sleepReason() const { return wait_.reason; }
    Tick sleepBegin() const { return wait_.begin; }

    /** @return true if a load/AMO is outstanding in the memory system. */
    bool
    hasPendingAccess() const
    {
        return wait_.kind == WaitKind::Load || wait_.kind == WaitKind::Amo;
    }

    /** Address of the outstanding access or overlap wait. */
    Addr waitAddr() const { return wait_.addr; }

  private:
    void tick();

    /** Schedule tick() for the next cycle unless one is pending. */
    void scheduleTick();

    /**
     * The single wait slot.  The in-order core never has two waits or
     * two accesses outstanding, and a squash clears the slot.
     */
    struct Wait
    {
        WaitKind kind = WaitKind::None;
        StallReason reason = StallReason::NumReasons;
        Tick begin = 0;          //!< when the wait (or access) began
        Addr addr = 0;           //!< Load/Amo/SbNoOverlap target
        unsigned size = 0;       //!< SbNoOverlap access size
        std::uint32_t epoch = 0; //!< SpecExit: the epoch waited out
        isa::RegId rd = 0;       //!< Load/Amo destination register
    };

    /**
     * Enter an idle sleep on @p kind, charged to @p reason from now.
     * While asleep the core schedules no tick events at all; the wake
     * bulk-accounts the slept cycles.  A wait whose condition already
     * holds is not armed: a one-shot wakes the core next cycle.
     */
    void waitFor(StallReason reason, WaitKind kind, Addr addr = 0,
                 unsigned size = 0, std::uint32_t epoch = 0);

    /** @return true if the store-buffer or epoch wait's condition holds. */
    bool waitHolds() const;

    /** End the sleep: account it and resume next cycle. */
    void wake();

    /**
     * Reserve per-store speculative storage for one access of the
     * current epoch, or wait for the epoch to end.
     */
    bool reserveOrWait(bool is_store);

    /** Completion of the (single) outstanding load, via done_fn. */
    void loadResponse(std::uint64_t gen, std::uint64_t value);

    /** Completion of the (single) outstanding AMO, via done_fn. */
    void amoResponse(std::uint64_t gen, std::uint64_t old_value);

    void executeLoad(const isa::Inst &inst);
    void executeStore(const isa::Inst &inst);
    void executeAmo(const isa::Inst &inst);
    void executeFence(const isa::Inst &inst);
    void executeHalt();

    void setReg(isa::RegId r, std::uint64_t v);
    void advance(std::uint64_t next_pc);
    void accountStall(StallReason reason, Tick begin);

    /** Charge @p cycles at the current pc to the profiler. */
    void
    profileCycles(prof::CycleBucket bucket, std::uint64_t cycles)
    {
        prof_->addCycles(core_id_, pc_, bucket, cycles,
                         spec_ && spec_->inSpec());
    }

    Params params_;
    CoreId core_id_;
    const isa::Program &prog_;
    const isa::DecodedProgram &decoded_; //!< per-pc execution classes
    mem::L1Cache &l1_;
    std::uint32_t num_cores_;
    SpecInterface *spec_ = nullptr;
    prof::WasteProfiler *const prof_; //!< null when profiling is off

    StoreBuffer sb_;

    std::array<std::uint64_t, isa::num_regs> regs_{};
    std::uint64_t pc_ = 0;
    std::uint64_t instret_ = 0;
    bool halted_ = false;
    std::uint64_t squash_gen_ = 0; //!< invalidates in-flight callbacks
    bool tick_pending_ = false;    //!< a live tick() one-shot is queued
    Wait wait_;

    statistics::Scalar &stat_instructions_;
    statistics::Scalar &stat_loads_;
    statistics::Scalar &stat_stores_;
    statistics::Scalar &stat_amos_;
    statistics::Scalar &stat_fences_full_;
    statistics::Scalar &stat_fences_acq_;
    statistics::Scalar &stat_fences_rel_;
    statistics::Scalar &stat_halt_tick_;
    std::array<statistics::Scalar *,
               static_cast<std::size_t>(StallReason::NumReasons)>
        stat_stalls_{};
    statistics::Distribution &stat_load_latency_;
};

} // namespace fenceless::cpu
