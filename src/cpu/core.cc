#include "cpu/core.hh"

#include <iterator>
#include <sstream>

#include "base/logging.hh"
#include "mem/mem_request.hh"

namespace fenceless::cpu
{

using isa::Inst;
using isa::Op;

const char *
consistencyModelName(ConsistencyModel m)
{
    switch (m) {
      case ConsistencyModel::SC: return "SC";
      case ConsistencyModel::TSO: return "TSO";
      case ConsistencyModel::RMO: return "RMO";
    }
    return "?";
}

ConsistencyModel
parseConsistencyModel(const std::string &name)
{
    std::string lower;
    for (char c : name)
        lower += static_cast<char>(std::tolower(c));
    if (lower == "sc")
        return ConsistencyModel::SC;
    if (lower == "tso")
        return ConsistencyModel::TSO;
    if (lower == "rmo")
        return ConsistencyModel::RMO;
    fatal("unknown consistency model '", name, "'");
}

namespace
{

/** Per StallReason, in enum order: its name and its stat's text. */
struct StallNames
{
    const char *reason;
    const char *stat;
    const char *desc;
};

constexpr StallNames stall_names[] = {
    {"sc_load_order", "stall_sc_load_order", "cycles stalled: sc_load_order"},
    {"fence_drain", "stall_fence_drain", "cycles stalled: fence_drain"},
    {"amo_order", "stall_amo_order", "cycles stalled: amo_order"},
    {"amo_data", "stall_amo_data", "cycles stalled: amo_data"},
    {"sb_full", "stall_sb_full", "cycles stalled: sb_full"},
    {"load_access", "stall_load_access", "cycles stalled: load_access"},
    {"amo_access", "stall_amo_access", "cycles stalled: amo_access"},
    {"fwd_conflict", "stall_fwd_conflict", "cycles stalled: fwd_conflict"},
    {"halt_drain", "stall_halt_drain", "cycles stalled: halt_drain"},
    {"spec_limit", "stall_spec_limit", "cycles stalled: spec_limit"},
};
static_assert(std::size(stall_names) ==
              static_cast<std::size_t>(StallReason::NumReasons));

} // namespace

const char *
stallReasonName(StallReason r)
{
    const auto i = static_cast<std::size_t>(r);
    return i < std::size(stall_names) ? stall_names[i].reason : "?";
}

Core::Core(sim::SimContext &ctx, const std::string &name,
           const Params &params, CoreId core_id, const isa::Program &prog,
           const isa::DecodedProgram &decoded, mem::L1Cache &l1,
           std::uint32_t num_cores)
    : SimObject(ctx, name), params_(params), core_id_(core_id),
      prog_(prog), decoded_(decoded), l1_(l1), num_cores_(num_cores),
      prof_(ctx.profiler.ifEnabled()),
      sb_(statGroup(),
          StoreBuffer::Params{params.sb_size,
                              ModelPolicy::sbDrainsInOrder(params.model),
                              params.sb_max_inflight,
                              params.sb_prefetch_depth},
          l1, *this),
      stat_instructions_(statGroup().addScalar("instructions",
                                               "instructions retired")),
      stat_loads_(statGroup().addScalar("loads", "loads executed")),
      stat_stores_(statGroup().addScalar("stores", "stores executed")),
      stat_amos_(statGroup().addScalar("amos", "atomics executed")),
      stat_fences_full_(statGroup().addScalar("fences_full",
                                              "full fences executed")),
      stat_fences_acq_(statGroup().addScalar("fences_acquire",
                                             "acquire fences executed")),
      stat_fences_rel_(statGroup().addScalar("fences_release",
                                             "release fences executed")),
      stat_halt_tick_(statGroup().addScalar("halt_tick",
                                            "cycle the core halted")),
      stat_load_latency_(statGroup().addDistribution("load_latency",
          "cycles from load issue to writeback (cache path only)"))
{
    for (std::size_t i = 0; i < std::size(stall_names); ++i) {
        stat_stalls_[i] = &statGroup().addScalar(stall_names[i].stat,
                                                 stall_names[i].desc);
    }
    statGroup().addFormula("ipc", "instructions per cycle up to halt",
                           [this] {
                               const auto cycles =
                                   stat_halt_tick_.count();
                               return cycles ? stat_instructions_.value()
                                                   / cycles
                                             : 0.0;
                           });
}

void
Core::reset()
{
    regs_.fill(0);
    regs_[isa::tp] = core_id_;
    pc_ = 0;
    instret_ = 0;
    halted_ = false;
    wait_.kind = WaitKind::None;
    scheduleTick();
}

void
Core::setReg(isa::RegId r, std::uint64_t v)
{
    if (r != 0)
        regs_[r] = v;
}

void
Core::scheduleTick()
{
    if (tick_pending_)
        return;
    tick_pending_ = true;
    eventq().scheduleOneShot(curTick() + 1, [this, gen = squash_gen_] {
        if (gen != squash_gen_)
            return; // orphaned by a rollback
        tick_pending_ = false;
        tick();
    });
}

namespace
{

/** Map the fine-grained stall taxonomy onto the waste buckets. */
prof::CycleBucket
profileBucket(StallReason reason)
{
    switch (reason) {
      case StallReason::SbFull:
        return prof::CycleBucket::SbFull;
      case StallReason::LoadAccess:
      case StallReason::AmoAccess:
      case StallReason::FwdConflict:
        return prof::CycleBucket::MissWait;
      // Everything else is an ordering stall: the fence-stall family.
      case StallReason::ScLoadOrder:
      case StallReason::FenceDrain:
      case StallReason::AmoOrder:
      case StallReason::AmoData:
      case StallReason::HaltDrain:
      case StallReason::SpecLimit:
      case StallReason::NumReasons:
        break;
    }
    return prof::CycleBucket::FenceStall;
}

} // namespace

void
Core::advance(std::uint64_t next_pc)
{
    if (prof_) // pc_ still names the instruction that just executed
        profileCycles(prof::CycleBucket::Execute, 1);
    pc_ = next_pc;
    ++instret_;
    ++stat_instructions_;
    FL_TEVENT(*this, trace::EventKind::CoreCommit, instret_);
    scheduleTick();
}

void
Core::accountStall(StallReason reason, Tick begin)
{
    *stat_stalls_[static_cast<std::size_t>(reason)] += curTick() - begin;
    if (prof_)
        profileCycles(profileBucket(reason), curTick() - begin);
    FL_TEVENT(*this, trace::EventKind::CoreStall, begin, 0,
              static_cast<std::uint32_t>(reason));
}

void
Core::waitFor(StallReason reason, WaitKind kind, Addr addr,
              unsigned size, std::uint32_t epoch)
{
    // Idle-sleep entry: while waiting, the core schedules nothing --
    // no tick events fire for the dead cycles -- and the wake accounts
    // the whole slept interval in one shot, so the stall statistics
    // are exactly what per-cycle accounting would have produced.
    wait_.kind = kind;
    wait_.reason = reason;
    wait_.begin = curTick();
    wait_.addr = addr;
    wait_.size = size;
    wait_.epoch = epoch;
    if (waitHolds()) {
        wait_.kind = WaitKind::None;
        eventq().scheduleOneShot(curTick() + 1, [this, gen = squash_gen_] {
            if (gen == squash_gen_) // else squashed while asleep
                wake();
        });
    }
}

bool
Core::waitHolds() const
{
    switch (wait_.kind) {
      case WaitKind::SbEmpty:
        return sb_.empty();
      case WaitKind::SbSpace:
        return !sb_.full();
      case WaitKind::SbNoOverlap:
        return !sb_.hasOverlap(wait_.addr, wait_.size);
      case WaitKind::SpecExit:
        // Every commit and every rollback advances the epoch.
        return spec_->epoch() != wait_.epoch;
      case WaitKind::None:
      case WaitKind::Load:
      case WaitKind::Amo:
        break;
    }
    return false;
}

void
Core::wake()
{
    wait_.kind = WaitKind::None;
    accountStall(wait_.reason, wait_.begin);
    scheduleTick();
}

void
Core::storeDrained()
{
    if (spec_)
        spec_->storeDrained();
    if (waitHolds())
        wake();
}

void
Core::specExited()
{
    // A store-buffer wait is left to storeDrained(), which checks it
    // once the controller has finished (and maybe chained an epoch).
    if (wait_.kind == WaitKind::SpecExit && waitHolds())
        wake();
}

bool
Core::reserveOrWait(bool is_store)
{
    // A full budget forces a commit, which in continuous mode may chain
    // a new epoch inside the call: wait out the epoch read before it.
    const std::uint32_t epoch = spec_->epoch();
    if (spec_->reserveSpecSlot(is_store))
        return true;
    waitFor(StallReason::SpecLimit, WaitKind::SpecExit, 0, 0, epoch);
    return false;
}

void
Core::loadResponse(std::uint64_t gen, std::uint64_t value)
{
    if (gen != squash_gen_)
        return; // stale: the core was squashed while the load flew
    wait_.kind = WaitKind::None;
    accountStall(StallReason::LoadAccess, wait_.begin);
    stat_load_latency_.sample(
        static_cast<double>(curTick() - wait_.begin));
    setReg(wait_.rd, value);
    advance(pc_ + 1);
}

void
Core::amoResponse(std::uint64_t gen, std::uint64_t old_value)
{
    if (gen != squash_gen_)
        return; // stale: the core was squashed while the AMO flew
    wait_.kind = WaitKind::None;
    accountStall(StallReason::AmoAccess, wait_.begin);
    setReg(wait_.rd, old_value);
    advance(pc_ + 1);
}

Core::ArchSnapshot
Core::snapshot() const
{
    return ArchSnapshot{regs_, pc_, instret_};
}

void
Core::restoreAndResume(const ArchSnapshot &snap)
{
    ++squash_gen_;
    wait_.kind = WaitKind::None;
    regs_ = snap.regs;
    pc_ = snap.pc;
    stat_instructions_ = snap.instret; // discard wrong-path retirement
    instret_ = snap.instret;
    flAssert(!halted_, name(), ": rollback after halt");
    tick_pending_ = false; // the bumped generation orphans a queued tick
    scheduleTick();
}

// ---------------------------------------------------------------------
// the pipeline
// ---------------------------------------------------------------------

void
Core::tick()
{
    if (halted_)
        return;
    flAssert(pc_ < prog_.code.size(), name(), ": pc ", pc_,
             " out of range");
    const Inst &inst = prog_.code[pc_];

    // Dispatch on the pre-decoded execution class (computed once per
    // static instruction at construction) instead of re-classifying
    // the ~40-way opcode space on every dynamic step.
    switch (decoded_.cls(pc_)) {
      case isa::ExecClass::AluReg:
        setReg(inst.rd, isa::aluOp(inst.op, reg(inst.rs1),
                                   reg(inst.rs2)));
        advance(pc_ + 1);
        break;

      case isa::ExecClass::AluImm:
        setReg(inst.rd, isa::aluOp(inst.op, reg(inst.rs1),
                                   static_cast<std::uint64_t>(inst.imm)));
        advance(pc_ + 1);
        break;

      case isa::ExecClass::Li:
        setReg(inst.rd, static_cast<std::uint64_t>(inst.imm));
        advance(pc_ + 1);
        break;

      case isa::ExecClass::Load:
        executeLoad(inst);
        break;
      case isa::ExecClass::Store:
        executeStore(inst);
        break;
      case isa::ExecClass::Amo:
        executeAmo(inst);
        break;
      case isa::ExecClass::Fence:
        executeFence(inst);
        break;

      case isa::ExecClass::Branch:
        advance(isa::branchTaken(inst.op, reg(inst.rs1), reg(inst.rs2))
                ? static_cast<std::uint64_t>(inst.imm) : pc_ + 1);
        break;

      case isa::ExecClass::Jal:
        setReg(inst.rd, pc_ + 1);
        advance(static_cast<std::uint64_t>(inst.imm));
        break;

      case isa::ExecClass::Jalr: {
        const std::uint64_t target = reg(inst.rs1) + inst.imm;
        setReg(inst.rd, pc_ + 1);
        advance(target);
        break;
      }

      case isa::ExecClass::CsrRead:
        switch (inst.csr) {
          case isa::Csr::Tid:
            setReg(inst.rd, core_id_);
            break;
          case isa::Csr::NumCores:
            setReg(inst.rd, num_cores_);
            break;
          case isa::Csr::Cycle:
            setReg(inst.rd, curTick());
            break;
          case isa::Csr::InstRet:
            setReg(inst.rd, instret_);
            break;
        }
        advance(pc_ + 1);
        break;

      case isa::ExecClass::Halt:
        executeHalt();
        break;

      case isa::ExecClass::Nop:
      case isa::ExecClass::Pause:
        advance(pc_ + 1);
        break;
    }
}

void
Core::executeLoad(const Inst &inst)
{
    const Addr addr = reg(inst.rs1) + inst.imm;
    flAssert(addr % inst.size == 0, name(), ": misaligned load @0x",
             std::hex, addr);

    bool spec_now = spec_ && spec_->inSpec();

    // SC: a load may not issue while stores are buffered -- unless the
    // speculation controller lets us proceed past the ordering point.
    // Inside an epoch the controller extends its commit watermark on
    // every such crossing: SC requires all earlier stores to be ordered
    // before this load, so the epoch may not commit until they drain.
    if (ModelPolicy::loadNeedsSbEmpty(params_.model) && !sb_.empty()) {
        if (spec_ &&
            spec_->shouldSpeculate(SpecInterface::OrderPoint::ScLoad)) {
            spec_now = true;
        } else {
            waitFor(StallReason::ScLoadOrder, WaitKind::SbEmpty);
            return;
        }
    }

    if (spec_now && !reserveOrWait(false))
        return;

    // Store-buffer forwarding.
    std::uint64_t fwd_value = 0;
    switch (sb_.forward(addr, inst.size, fwd_value)) {
      case StoreBuffer::Fwd::Hit:
        ++stat_loads_;
        setReg(inst.rd, fwd_value);
        advance(pc_ + 1);
        return;
      case StoreBuffer::Fwd::Conflict:
        waitFor(StallReason::FwdConflict, WaitKind::SbNoOverlap, addr,
                inst.size);
        return;
      case StoreBuffer::Fwd::None:
        break;
    }

    ++stat_loads_;
    // Per-request state lives in the wait slot (the in-order core has
    // at most one access outstanding); the bound completion carries
    // only the squash generation, so issuing a load builds no closure
    // and allocates nothing.
    waitFor(StallReason::LoadAccess, WaitKind::Load, addr, inst.size);
    wait_.rd = inst.rd;
    mem::MemRequest req;
    req.op = mem::MemOp::Load;
    req.addr = addr;
    req.size = inst.size;
    req.spec = spec_now;
    req.spec_epoch = spec_now ? spec_->epoch() : 0;
    req.pc = pc_;
    req.done_fn = [](void *obj, std::uint64_t gen, std::uint64_t value) {
        static_cast<Core *>(obj)->loadResponse(gen, value);
    };
    req.done_obj = this;
    req.done_ctx = squash_gen_;
    l1_.access(std::move(req));
}

void
Core::executeStore(const Inst &inst)
{
    const Addr addr = reg(inst.rs1) + inst.imm;
    flAssert(addr % inst.size == 0, name(), ": misaligned store @0x",
             std::hex, addr);

    if (sb_.full()) {
        waitFor(StallReason::SbFull, WaitKind::SbSpace);
        return;
    }

    const bool spec_now = spec_ && spec_->inSpec();
    if (spec_now && !reserveOrWait(true))
        return;
    sb_.push(addr, inst.size, reg(inst.rs2), spec_now,
             spec_now ? spec_->epoch() : 0, pc_);
    ++stat_stores_;
    advance(pc_ + 1);
}

void
Core::executeAmo(const Inst &inst)
{
    const Addr addr = reg(inst.rs1);
    flAssert(addr % inst.size == 0, name(), ": misaligned AMO @0x",
             std::hex, addr);

    // Value dependency: a buffered store to the same bytes must reach
    // the cache before the read-modify-write, regardless of model or
    // speculation.
    if (sb_.hasOverlap(addr, inst.size)) {
        waitFor(StallReason::AmoData, WaitKind::SbNoOverlap, addr,
                inst.size);
        return;
    }

    bool spec_now = spec_ && spec_->inSpec();

    // Ordering: SC/TSO atomics drain the whole buffer first (inside an
    // epoch the crossing extends the commit watermark instead).
    if (ModelPolicy::amoDrainsSb(params_.model) && !sb_.empty()) {
        if (spec_ &&
            spec_->shouldSpeculate(SpecInterface::OrderPoint::Amo)) {
            spec_now = true;
        } else {
            waitFor(StallReason::AmoOrder, WaitKind::SbEmpty);
            return;
        }
    }

    if (spec_now && !(reserveOrWait(true) && reserveOrWait(false)))
        return;

    ++stat_amos_;
    waitFor(StallReason::AmoAccess, WaitKind::Amo, addr, inst.size);
    wait_.rd = inst.rd;
    mem::MemRequest req;
    req.op = mem::MemOp::Amo;
    req.addr = addr;
    req.size = inst.size;
    req.spec = spec_now;
    req.spec_epoch = spec_now ? spec_->epoch() : 0;
    req.pc = pc_;
    req.amo_fn = [](std::uint8_t sel, std::uint64_t old_value,
                    std::uint64_t a, std::uint64_t b) {
        return isa::amoApplyOp(static_cast<Op>(sel), old_value, a, b);
    };
    req.amo_sel = static_cast<std::uint8_t>(inst.op);
    req.amo_a = reg(inst.rs2);
    req.amo_b = reg(inst.rs3);
    req.done_fn = [](void *obj, std::uint64_t gen,
                     std::uint64_t old_value) {
        static_cast<Core *>(obj)->amoResponse(gen, old_value);
    };
    req.done_obj = this;
    req.done_ctx = squash_gen_;
    l1_.access(std::move(req));
}

void
Core::executeFence(const Inst &inst)
{
    switch (inst.fence) {
      case isa::FenceKind::Full:
        ++stat_fences_full_;
        if (ModelPolicy::fullFenceDrains(params_.model) && !sb_.empty()) {
            // shouldSpeculate() either opens an epoch, extends the
            // commit watermark of the current one, or declines (stall).
            if (!(spec_ && spec_->shouldSpeculate(
                      SpecInterface::OrderPoint::FullFence))) {
                waitFor(StallReason::FenceDrain, WaitKind::SbEmpty);
                return;
            }
        }
        advance(pc_ + 1);
        break;

      case isa::FenceKind::Acquire:
        // Free on an in-order core: the acquiring load/AMO completed
        // before this instruction executes.
        ++stat_fences_acq_;
        advance(pc_ + 1);
        break;

      case isa::FenceKind::Release:
        ++stat_fences_rel_;
        if (ModelPolicy::releaseFenceMarks(params_.model))
            sb_.pushBarrier();
        advance(pc_ + 1);
        break;
    }
}

void
Core::executeHalt()
{
    if (!sb_.empty()) {
        waitFor(StallReason::HaltDrain, WaitKind::SbEmpty);
        return;
    }
    if (spec_ && spec_->inSpec()) {
        // Arm the wait first: the commit may happen inside the call.
        waitFor(StallReason::HaltDrain, WaitKind::SpecExit, 0, 0,
                spec_->epoch());
        spec_->requestStop();
        return;
    }
    if (prof_)
        profileCycles(prof::CycleBucket::Execute, 1);
    ++instret_;
    ++stat_instructions_;
    halted_ = true;
    stat_halt_tick_ = curTick();
}

} // namespace fenceless::cpu
