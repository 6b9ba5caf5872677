/**
 * @file
 * The post-retirement store buffer.
 *
 * Stores retire into the buffer and drain to the L1 one at a time.  The
 * drain order is strict program order (SC/TSO) or relaxed (RMO): any
 * entry of the oldest barrier group with no older overlapping entry may
 * drain.  Release fences insert barrier-group boundaries under RMO.
 *
 * Entries are tagged with a monotonically increasing sequence number;
 * the speculation controller uses these to express its commit condition
 * ("all entries up to the watermark have drained") and to discard
 * speculative entries on rollback.
 *
 * The buffer keeps no waiters: after every completed drain it calls
 * Core::storeDrained(), and the owning core checks its own wait.  It
 * is part of its core: its stats, its occupancy trace records and its
 * retry event all belong to the core.
 *
 * Storage is one vector reserved to the buffer's size at construction,
 * and in-flight drains are a count, so draining allocates nothing.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "mem/l1_cache.hh"

namespace fenceless::cpu
{

class Core;

class StoreBuffer
{
  public:
    struct Params
    {
        unsigned size = 16;
        bool drain_in_order = true;
        /**
         * Maximum concurrently outstanding drain stores.  In-order
         * drain is limited to 1 (completion order must equal program
         * order); relaxed drain overlaps several so a hitting store can
         * complete while an older miss is still fetching ownership.
         */
        unsigned max_inflight = 4;
        /**
         * How many buffered stores beyond the drain point get
         * non-binding exclusive-ownership prefetches.  This is how a
         * TSO machine overlaps store misses while still committing
         * writes in order.
         */
        unsigned prefetch_depth = 4;
    };

    struct Entry
    {
        std::uint64_t seq;
        Addr addr;
        std::uint8_t size;
        std::uint64_t data;
        bool spec;
        std::uint32_t spec_epoch;
        std::uint64_t pc = 0; //!< issuing static instruction
        std::uint32_t barrier_group;
        bool issued = false;
        bool prefetched = false; //!< ownership prefetch already sent
    };

    /** Result of a load looking for forwarding. */
    enum class Fwd
    {
        None,     //!< no overlapping entry; go to the cache
        Hit,      //!< fully forwarded
        Conflict, //!< partial overlap; must wait for the entry to drain
    };

    /** Built by @p core, which it notifies after every drain. */
    StoreBuffer(statistics::StatGroup &stats, const Params &params,
                mem::L1Cache &l1, Core &core);

    // --- status --------------------------------------------------------

    bool empty() const { return entries_.empty(); }
    bool full() const { return entries_.size() >= params_.size; }
    std::size_t occupancy() const { return entries_.size(); }
    unsigned capacity() const { return params_.size; }

    /** Sequence number of the most recently pushed entry (0 if none). */
    std::uint64_t lastSeq() const { return next_seq_ - 1; }

    /** @return true when no entry with seq <= @p watermark remains. */
    bool allDrainedUpTo(std::uint64_t watermark) const;

    /** @return true if any entry overlaps [addr, addr+size). */
    bool hasOverlap(Addr addr, unsigned size) const;

    // --- stall-dossier inspection ----------------------------------------

    /** Buffered entries, oldest first (read-only, for wait graphs). */
    const std::vector<Entry> &entries() const { return entries_; }

    /** @return true if a drain retry is parked (MSHR backpressure). */
    bool retryPending() const { return retry_pending_; }

    // --- core-side operations -------------------------------------------

    /** Retire a store into the buffer (must not be full). */
    std::uint64_t push(Addr addr, std::uint8_t size, std::uint64_t data,
                       bool spec, std::uint32_t spec_epoch,
                       std::uint64_t pc = 0);

    /** Insert a release-fence ordering marker (RMO). */
    void pushBarrier();

    /** Attempt to forward a load from the buffer. */
    Fwd forward(Addr addr, unsigned size, std::uint64_t &out);

    // --- speculation support ---------------------------------------------

    /**
     * Discard (speculative) entries with seq > @p keep_up_to.  An entry
     * already issued to the cache completes there as a stale-epoch
     * no-op; its completion is ignored here.
     */
    void discardAfter(std::uint64_t keep_up_to);

    /**
     * The epoch committed: remaining speculative entries become ordinary
     * stores (their epoch tag would otherwise be stale when they drain).
     */
    void commitSpec();

  private:
    void issueNext();
    void issuePrefetches();
    void scheduleRetry();
    void complete(std::uint64_t seq);
    Entry *pickEligible();
    /** Record the occupancy counter on the core's track. */
    void recordOccupancy();

    static bool
    overlaps(Addr a1, unsigned s1, Addr a2, unsigned s2)
    {
        return a1 < a2 + s2 && a2 < a1 + s1;
    }

    Params params_;
    mem::L1Cache &l1_;
    Core &core_;

    std::vector<Entry> entries_; //!< oldest first; never reallocates
    std::uint64_t next_seq_ = 1;
    std::uint32_t barrier_group_ = 0;
    /**
     * Issued drains not yet completed.  Every issued drain completes
     * exactly once at the L1, a discarded one as a stale-epoch no-op.
     */
    unsigned inflight_ = 0;
    bool retry_pending_ = false; //!< MSHR-pressure retry scheduled

    statistics::Scalar &stat_pushed_;
    statistics::Scalar &stat_drained_;
    statistics::Scalar &stat_barriers_;
    statistics::Scalar &stat_discarded_;
    statistics::Scalar &stat_fwd_hits_;
    statistics::Scalar &stat_fwd_conflicts_;
    statistics::Distribution &stat_occupancy_;
};

} // namespace fenceless::cpu
