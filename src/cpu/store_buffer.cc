#include "cpu/store_buffer.hh"

#include <algorithm>

#include "base/logging.hh"
#include "cpu/core.hh"
#include "mem/mem_request.hh"

namespace fenceless::cpu
{

StoreBuffer::StoreBuffer(statistics::StatGroup &stats,
                         const Params &params, mem::L1Cache &l1,
                         Core &core)
    : params_(params), l1_(l1), core_(core),
      stat_pushed_(stats.addScalar("sb_pushed", "stores retired into "
                                   "the store buffer")),
      stat_drained_(stats.addScalar("sb_drained", "stores written to "
                                    "the cache")),
      stat_barriers_(stats.addScalar("sb_barriers",
                                     "release markers inserted")),
      stat_discarded_(stats.addScalar("sb_discarded", "speculative "
                                      "stores discarded by rollback")),
      stat_fwd_hits_(stats.addScalar("sb_fwd_hits",
                                     "loads forwarded from the buffer")),
      stat_fwd_conflicts_(stats.addScalar("sb_fwd_conflicts", "loads "
          "stalled on a partially-overlapping buffered store")),
      stat_occupancy_(stats.addDistribution("sb_occupancy",
          "buffer occupancy sampled at each push"))
{
    flAssert(params_.size > 0, "store buffer needs at least one entry");
    entries_.reserve(params_.size);
}

void
StoreBuffer::recordOccupancy()
{
    FL_TEVENT(core_, trace::EventKind::SbOccupancy, entries_.size());
}

bool
StoreBuffer::allDrainedUpTo(std::uint64_t watermark) const
{
    for (const auto &e : entries_) {
        if (e.seq <= watermark)
            return false;
    }
    return true;
}

bool
StoreBuffer::hasOverlap(Addr addr, unsigned size) const
{
    for (const auto &e : entries_) {
        if (overlaps(e.addr, e.size, addr, size))
            return true;
    }
    return false;
}

std::uint64_t
StoreBuffer::push(Addr addr, std::uint8_t size, std::uint64_t data,
                  bool spec, std::uint32_t spec_epoch,
                  std::uint64_t pc)
{
    flAssert(!full(), "push into a full store buffer");
    Entry e;
    e.seq = next_seq_++;
    e.addr = addr;
    e.size = size;
    e.data = data;
    e.spec = spec;
    e.spec_epoch = spec_epoch;
    e.pc = pc;
    e.barrier_group = barrier_group_;
    entries_.push_back(e);
    ++stat_pushed_;
    stat_occupancy_.sample(static_cast<double>(entries_.size()));
    recordOccupancy();
    issueNext();
    return e.seq;
}

void
StoreBuffer::pushBarrier()
{
    // Only meaningful when there is something to order.
    if (!entries_.empty())
        ++barrier_group_;
    ++stat_barriers_;
}

StoreBuffer::Fwd
StoreBuffer::forward(Addr addr, unsigned size, std::uint64_t &out)
{
    // Newest overlapping entry wins.
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        const Entry &e = *it;
        if (!overlaps(e.addr, e.size, addr, size))
            continue;
        if (e.addr <= addr && addr + size <= e.addr + e.size) {
            const unsigned shift =
                static_cast<unsigned>(addr - e.addr) * 8;
            std::uint64_t v = e.data >> shift;
            if (size < 8)
                v &= (std::uint64_t{1} << (size * 8)) - 1;
            out = v;
            ++stat_fwd_hits_;
            return Fwd::Hit;
        }
        ++stat_fwd_conflicts_;
        return Fwd::Conflict;
    }
    return Fwd::None;
}

StoreBuffer::Entry *
StoreBuffer::pickEligible()
{
    if (entries_.empty())
        return nullptr;
    if (params_.drain_in_order) {
        Entry &head = entries_.front();
        return head.issued ? nullptr : &head;
    }
    // Relaxed drain: any unissued entry of the oldest barrier group with
    // no older overlapping entry (per-address order is preserved).
    // Prefer entries whose block is already writable in the L1 -- this
    // opportunistic reordering of hits ahead of misses is exactly the
    // store-store relaxation RMO permits.
    const std::uint32_t oldest_group = entries_.front().barrier_group;
    Entry *fallback = nullptr;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        Entry &e = entries_[i];
        if (e.barrier_group != oldest_group)
            break;
        if (e.issued)
            continue;
        bool blocked = false;
        for (std::size_t j = 0; j < i; ++j) {
            if (overlaps(entries_[j].addr, entries_[j].size, e.addr,
                         e.size)) {
                blocked = true;
                break;
            }
        }
        if (blocked)
            continue;
        if (l1_.hasWritePermission(e.addr))
            return &e;
        if (!fallback)
            fallback = &e;
    }
    return fallback;
}

void
StoreBuffer::issueNext()
{
    issuePrefetches();
    const unsigned limit =
        params_.drain_in_order ? 1 : params_.max_inflight;
    while (inflight_ < limit) {
        Entry *e = pickEligible();
        if (!e)
            return;
        if (!l1_.hasWritePermission(e->addr) && !l1_.canAcceptMiss()) {
            // The L1 is out of miss slots; retry shortly (nothing else
            // is guaranteed to re-invoke us once the MSHRs drain).
            scheduleRetry();
            return;
        }

        e->issued = true;
        ++inflight_;

        mem::MemRequest req;
        req.op = mem::MemOp::Store;
        req.addr = e->addr;
        req.size = e->size;
        req.store_data = e->data;
        req.spec = e->spec;
        req.spec_epoch = e->spec_epoch;
        req.pc = e->pc;
        req.done_fn = [](void *obj, std::uint64_t seq, std::uint64_t) {
            static_cast<StoreBuffer *>(obj)->complete(seq);
        };
        req.done_obj = this;
        req.done_ctx = e->seq;
        l1_.access(std::move(req));
    }
}

void
StoreBuffer::scheduleRetry()
{
    if (retry_pending_)
        return;
    retry_pending_ = true;
    core_.eventq().scheduleOneShot(core_.curTick() + 4, [this] {
        retry_pending_ = false;
        issueNext();
    });
}

void
StoreBuffer::issuePrefetches()
{
    // Fetch write permission early for buffered stores that will drain
    // soon, so an in-order drain of several misses overlaps their
    // ownership round trips instead of serializing them.
    unsigned examined = 0;
    for (auto &e : entries_) {
        if (examined++ >= params_.prefetch_depth)
            break;
        if (e.issued || e.prefetched)
            continue;
        e.prefetched = true;
        if (l1_.hasWritePermission(e.addr) || !l1_.canAcceptMiss())
            continue;
        mem::MemRequest req;
        req.op = mem::MemOp::PrefetchEx;
        req.addr = e.addr;
        req.size = e.size;
        req.pc = e.pc;
        req.done_fn = [](void *, std::uint64_t, std::uint64_t) {};
        l1_.access(std::move(req));
    }
}

void
StoreBuffer::complete(std::uint64_t seq)
{
    flAssert(inflight_ > 0, "store-buffer drain completed twice (seq ",
             seq, ")");
    --inflight_;
    // The entry may have been discarded by a rollback while in flight;
    // in that case there is nothing to remove (the L1 dropped the write
    // as a stale-epoch no-op).
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [seq](const Entry &e) { return e.seq == seq; });
    if (it != entries_.end()) {
        entries_.erase(it);
        ++stat_drained_;
        recordOccupancy();
    }
    if (entries_.empty())
        barrier_group_ = 0;

    core_.storeDrained();
    issueNext();
}

void
StoreBuffer::commitSpec()
{
    for (auto &e : entries_) {
        e.spec = false;
        e.spec_epoch = 0;
    }
}

void
StoreBuffer::discardAfter(std::uint64_t keep_up_to)
{
    std::size_t removed = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->seq > keep_up_to) {
            flAssert(it->spec, "discarding a non-speculative store (seq ",
                     it->seq, ")");
            // A discarded entry that is already in flight completes
            // at the L1 as a stale-epoch no-op; complete() counts it
            // out of inflight_ then.
            it = entries_.erase(it);
            ++removed;
        } else {
            ++it;
        }
    }
    stat_discarded_ += removed;
    if (removed)
        recordOccupancy();
    if (entries_.empty())
        barrier_group_ = 0;
}

} // namespace fenceless::cpu
