#include "core/spec_controller.hh"

#include <algorithm>

#include "base/logging.hh"

namespace fenceless::spec
{

const char *
specModeName(SpecMode m)
{
    switch (m) {
      case SpecMode::Off: return "off";
      case SpecMode::OnDemand: return "on-demand";
      case SpecMode::Continuous: return "continuous";
    }
    return "?";
}

const char *
granularityName(Granularity g)
{
    switch (g) {
      case Granularity::Block: return "block";
      case Granularity::PerStore: return "per-store";
    }
    return "?";
}

const char *
overflowPolicyName(OverflowPolicy p)
{
    switch (p) {
      case OverflowPolicy::Stall: return "stall";
      case OverflowPolicy::Rollback: return "rollback";
    }
    return "?";
}

const char *
rollbackCauseName(RollbackCause c)
{
    switch (c) {
      case RollbackCause::RemoteWrite: return "remote_write";
      case RollbackCause::RemoteRead: return "remote_read";
      case RollbackCause::Overflow: return "overflow";
      case RollbackCause::NumCauses: break;
    }
    return "?";
}

SpecController::SpecController(sim::SimContext &ctx,
                               const std::string &name,
                               const Params &params, cpu::Core &core,
                               mem::L1Cache &l1)
    : SimObject(ctx, name), params_(params), core_(core), l1_(l1),
      prof_(ctx.profiler.ifEnabled()),
      stat_epochs_(statGroup().addScalar("epochs",
                                         "speculative epochs begun")),
      stat_epochs_sc_load_(statGroup().addScalar("epochs_sc_load",
          "epochs triggered by an SC load ordering stall")),
      stat_epochs_fence_(statGroup().addScalar("epochs_fence",
          "epochs triggered by a draining fence")),
      stat_epochs_amo_(statGroup().addScalar("epochs_amo",
          "epochs triggered by an atomic's drain")),
      stat_commits_(statGroup().addScalar("commits",
                                          "epochs committed")),
      stat_rollbacks_(statGroup().addScalar("rollbacks",
                                            "epochs rolled back")),
      stat_discarded_insts_(statGroup().addScalar("discarded_insts",
          "speculative instructions discarded by rollbacks")),
      stat_crossings_(statGroup().addScalar("crossings",
          "ordering points crossed inside an epoch")),
      stat_spec_limit_stalls_(statGroup().addScalar("spec_limit_stalls",
          "accesses stalled on per-store speculative-storage limits")),
      stat_overflow_commits_(statGroup().addScalar("overflow_commits",
          "commits forced early by tag-eviction pressure")),
      stat_epoch_insts_(statGroup().addDistribution("epoch_insts",
          "instructions per committed epoch")),
      stat_epoch_stores_(statGroup().addDistribution("epoch_stores",
          "speculative stores per epoch")),
      stat_epoch_sw_blocks_(statGroup().addDistribution("epoch_sw_blocks",
          "speculatively-written blocks at epoch end")),
      stat_epoch_sr_blocks_(statGroup().addDistribution("epoch_sr_blocks",
          "speculatively-read blocks at epoch end")),
      stat_max_stores_(statGroup().addScalar("max_epoch_stores",
          "maximum speculative stores outstanding in one epoch")),
      stat_max_sw_(statGroup().addScalar("max_sw_blocks",
          "maximum speculatively-written blocks in one epoch")),
      stat_max_sr_(statGroup().addScalar("max_sr_blocks",
          "maximum speculatively-read blocks in one epoch"))
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(RollbackCause::NumCauses); ++i) {
        stat_rollback_cause_[i] = &statGroup().addScalar(
            std::string("rollback_") +
                rollbackCauseName(static_cast<RollbackCause>(i)),
            "rollbacks caused by " +
                std::string(rollbackCauseName(
                    static_cast<RollbackCause>(i))));
    }

    std::vector<std::string> cause_names;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(RollbackCause::NumCauses); ++i)
        cause_names.push_back(
            rollbackCauseName(static_cast<RollbackCause>(i)));
    tracer().setAuxNames(trace::EventKind::SpecRollback,
                         std::move(cause_names));

    core_.setSpec(this);
    l1_.setSpecHooks(this);
}

std::uint64_t
SpecController::epochInsts() const
{
    return core_.instret() - ckpt_.instret;
}

// ---------------------------------------------------------------------
// cpu::SpecInterface
// ---------------------------------------------------------------------

bool
SpecController::shouldSpeculate(OrderPoint point)
{
    if (params_.mode == SpecMode::Off)
        return false;

    if (in_spec_) {
        noteCrossing();
        return true;
    }

    if (cooldown_ > 0) {
        // The previous epoch rolled back at this ordering point; execute
        // it non-speculatively once to guarantee forward progress.
        --cooldown_;
        return false;
    }

    beginEpoch();
    switch (point) {
      case OrderPoint::ScLoad: ++stat_epochs_sc_load_; break;
      case OrderPoint::FullFence: ++stat_epochs_fence_; break;
      case OrderPoint::Amo: ++stat_epochs_amo_; break;
    }
    return true;
}

void
SpecController::beginEpoch()
{
    flAssert(!in_spec_, name(), ": nested epoch");
    in_spec_ = true;
    epoch_start_tick_ = curTick();
    ckpt_ = core_.snapshot();
    ckpt_seq_ = core_.storeBuffer().lastSeq();
    watermark_ = ckpt_seq_;
    epoch_stores_ = 0;
    epoch_loads_ = 0;
    overflow_pending_ = false;
    commit_scheduled_ = false;
    ++stat_epochs_;
}

void
SpecController::noteCrossing()
{
    // Another ordering point inside the epoch: everything currently in
    // the store buffer must drain before the epoch may commit.
    watermark_ = core_.storeBuffer().lastSeq();
    ++stat_crossings_;
}

bool
SpecController::reserveSpecSlot(bool is_store)
{
    flAssert(in_spec_, name(), ": reserveSpecSlot outside an epoch");
    if (params_.granularity == Granularity::PerStore) {
        const bool exhausted =
            is_store ? epoch_stores_ >= params_.ps_store_queue
                     : epoch_loads_ >= params_.ps_load_cam;
        if (exhausted) {
            ++stat_spec_limit_stalls_;
            // Resource pressure must force the epoch to close at the
            // earliest legal point, or a Continuous-mode epoch below
            // its instruction floor would never end and the stalled
            // core would deadlock.
            overflow_pending_ = true;
            tryCommit();
            return false;
        }
    }
    if (is_store) {
        ++epoch_stores_;
        stat_max_stores_.maxOf(epoch_stores_);
    } else {
        ++epoch_loads_;
    }
    return true;
}

void
SpecController::requestStop()
{
    flAssert(in_spec_, name(), ": requestStop outside an epoch");
    stop_requested_ = true;
    tryCommit();
}

void
SpecController::storeDrained()
{
    if (in_spec_)
        tryCommit();
}

// ---------------------------------------------------------------------
// commit
// ---------------------------------------------------------------------

void
SpecController::tryCommit()
{
    if (!in_spec_ || commit_scheduled_)
        return;

    const bool closeable =
        params_.mode == SpecMode::OnDemand || stop_requested_ ||
        overflow_pending_ || epochInsts() >= params_.min_epoch_insts;
    if (!closeable)
        return;
    if (!core_.storeBuffer().allDrainedUpTo(watermark_))
        return;

    if (params_.commit_arb_latency == 0) {
        doCommit();
        return;
    }
    // Model an arbitration-based commit: the epoch stays speculative
    // (and vulnerable to conflicts) while "arbitration" runs.
    commit_scheduled_ = true;
    eventq().scheduleOneShot(
        curTick() + params_.commit_arb_latency,
        [this, commit_epoch = epoch_] {
            commit_scheduled_ = false;
            if (!in_spec_ || epoch_ != commit_epoch)
                return; // rolled back while arbitrating
            // Re-verify: a crossing may have extended the watermark.
            if (core_.storeBuffer().allDrainedUpTo(watermark_))
                doCommit();
        });
}

void
SpecController::doCommit()
{
    flAssert(in_spec_, name(), ": commit outside an epoch");

    if (overflow_pending_)
        ++stat_overflow_commits_;
    stat_epoch_insts_.sample(static_cast<double>(epochInsts()));
    stat_epoch_stores_.sample(static_cast<double>(epoch_stores_));
    stat_epoch_sw_blocks_.sample(
        static_cast<double>(l1_.numSpecWrittenBlocks()));
    stat_epoch_sr_blocks_.sample(
        static_cast<double>(l1_.numSpecReadBlocks()));
    stat_max_sw_.maxOf(l1_.numSpecWrittenBlocks());
    stat_max_sr_.maxOf(l1_.numSpecReadBlocks());

    // Flash commit: speculatively-written blocks become ordinarily
    // dirty; speculative requests still queued in MSHRs and stores still
    // buffered become ordinary; then the epoch id advances, which
    // invalidates every SR/SW tag at once.
    FL_TEVENT(*this, trace::EventKind::SpecEpoch, epoch_start_tick_,
              epochInsts(), 1 /* outcome: commit */);
    l1_.commitQueuedSpecRequests(epoch_);
    l1_.commitSpecWrites();
    core_.storeBuffer().commitSpec();
    if (prof_)
        prof_->commitEpoch(core_.coreId());
    ++epoch_;
    in_spec_ = false;
    // Decay the rollback backoff slowly: a workload phase that keeps
    // conflicting should stay mostly non-speculative even if the odd
    // epoch commits in between.
    if (++commit_streak_ >= 4) {
        commit_streak_ = 0;
        consecutive_rollbacks_ /= 2;
    }
    ++stat_commits_;
    l1_.specCleared();

    const bool stopping = stop_requested_;
    stop_requested_ = false;
    // Wake a core waiting out this epoch before a chained one opens.
    core_.specExited();

    // Continuous mode: chain straight into the next epoch, decoupling
    // ordering enforcement from the core entirely.  Skip when the core
    // is mid-atomic (a checkpoint there could re-execute it) or when
    // recent rollbacks put us in backoff.
    if (params_.mode == SpecMode::Continuous && !stopping &&
        consecutive_rollbacks_ == 0 && !core_.amoInFlight()) {
        beginEpoch();
    }
}

// ---------------------------------------------------------------------
// rollback
// ---------------------------------------------------------------------

void
SpecController::specConflict(Addr block_addr, bool remote_write,
                             bool had_sw)
{
    flAssert(in_spec_, name(), ": conflict outside an epoch");
    flAssert(remote_write || had_sw,
             name(), ": remote read conflicting without an SW tag");
    rollback(remote_write ? RollbackCause::RemoteWrite
                          : RollbackCause::RemoteRead,
             block_addr);
}

bool
SpecController::specOverflow(Addr block_addr, bool needed_for_commit)
{
    flAssert(in_spec_, name(), ": overflow outside an epoch");
    if (params_.overflow == OverflowPolicy::Rollback ||
        needed_for_commit) {
        rollback(RollbackCause::Overflow, block_addr);
        return true;
    }
    // Park the fill; force the epoch to close as soon as it legally can
    // so the parked access is released.
    overflow_pending_ = true;
    tryCommit();
    // tryCommit may have committed synchronously (which already retried
    // the fill via specCleared); report "rolled back / cleared" so the
    // caller re-evaluates, otherwise ask it to wait.
    return !in_spec_;
}

void
SpecController::rollback(RollbackCause cause, Addr trigger_addr)
{
    flAssert(in_spec_, name(), ": rollback outside an epoch");

    if (prof_) {
        // Attribute before restoring: core_.pc() is still the
        // wrong-path victim PC.
        prof_->rollbackEpoch(core_.coreId(), rollbackCauseName(cause),
                             trigger_addr, core_.pc(), epochInsts());
    }

    stat_discarded_insts_ += epochInsts();
    stat_epoch_stores_.sample(static_cast<double>(epoch_stores_));
    stat_max_sw_.maxOf(l1_.numSpecWrittenBlocks());
    stat_max_sr_.maxOf(l1_.numSpecReadBlocks());

    FL_TEVENT(*this, trace::EventKind::SpecEpoch, epoch_start_tick_,
              epochInsts(), 0 /* outcome: rollback */);
    FL_TEVENT(*this, trace::EventKind::SpecRollback, 0, epochInsts(),
              static_cast<std::uint32_t>(cause));

    // Discard the speculative cache state (SW blocks become MStale; the
    // inclusive L2 holds every pre-speculation value), drop speculative
    // store-buffer entries, and restore the register checkpoint.
    l1_.rollbackSpecWrites();
    core_.storeBuffer().discardAfter(ckpt_seq_);
    ++epoch_;
    in_spec_ = false;
    // Exponential backoff: repeated conflicts at the same phase of the
    // program mean speculation is currently unprofitable.
    commit_streak_ = 0;
    ++consecutive_rollbacks_;
    cooldown_ = 1;
    if (consecutive_rollbacks_ < 31) {
        cooldown_ = std::min<unsigned>(
            1u << (consecutive_rollbacks_ - 1), params_.max_cooldown);
    } else {
        cooldown_ = params_.max_cooldown;
    }
    stop_requested_ = false;
    overflow_pending_ = false;

    ++stat_rollbacks_;
    ++(*stat_rollback_cause_[static_cast<std::size_t>(cause)]);

    core_.restoreAndResume(ckpt_);
    l1_.specCleared();
    core_.specExited();
}

} // namespace fenceless::spec
