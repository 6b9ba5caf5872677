/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * There is one kind of event: a one-shot callback.  A scheduled event
 * always fires at its tick; it can be neither cancelled nor moved.  A
 * component that must drop a pending callback orphans it instead: the
 * callable captures a generation counter and returns at once when the
 * component's counter has moved on (the core does this for its tick
 * and its memory responses after a rollback).
 *
 * Determinism: events scheduled for the same tick fire in (priority,
 * insertion-sequence) order, so a run is reproducible regardless of queue
 * internals.
 *
 * The queue is a two-level calendar queue.  Nearly every event a cycle-
 * accurate simulator schedules lands within a few ticks of "now" (core
 * ticks at +1, cache hits at +hit_latency, network hops at +latency,
 * DRAM fills at +dram_latency), so the near future -- a circular
 * window of @ref bucket_window per-tick buckets -- gets O(1) push and
 * pop.  Events beyond the window overflow into a binary heap (the far
 * queue) and migrate into the buckets the moment time brings them into
 * the window, so the exact (when, priority, stamp) total order of a
 * single heap is preserved bit-for-bit.
 *
 * Every pending event is one slot of a single slot array: the closure
 * inline (at most @ref closure_bytes, trivially copyable and trivially
 * destructible), its invoker, its priority and a link.  Scheduling
 * writes the closure straight into a free slot; firing copies the slot
 * out and runs the copy, so a callback may schedule freely.  A bucket
 * is two chains of slots, each in (priority, stamp) order: negative
 * priorities (the network's deliveries) and the rest.  The negative
 * chain drains first, so the fire order is the total order above, and
 * a delivery inserted among deliveries never walks past the component
 * events of its tick.  The slot array holds only what is pending, so
 * it stays a few kilobytes (hot in the host's L1) and stops growing
 * once it covers the peak number of pending events.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/types.hh"

namespace fenceless::sim
{

/** Standard event priorities; lower fires first within a tick. */
enum Priority : int
{
    prio_highest = 0,
    prio_default = 50,
    prio_lowest = 100,
};

/**
 * The global event queue.  Single-threaded: one queue drives the whole
 * simulated system.  Distinct queues share nothing, so independent
 * systems may run concurrently on different host threads.
 */
class EventQueue
{
  public:
    /**
     * Width of the near-future calendar window, in ticks.  Power of two
     * (bucket index is a mask).  Core ticks (+1), cache hits
     * (+hit_latency), network hops (+latency+serialization) and DRAM
     * fills (+dram_latency, 80 by default, plus the bank's queue) all
     * land inside it; only long-horizon events (parked retries under
     * deep DRAM queues) overflow into the far heap.
     */
    static constexpr std::size_t bucket_window = 128;

    /** Largest closure a one-shot may capture, in bytes. */
    static constexpr std::size_t closure_bytes = 32;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    Tick curTick() const { return cur_tick_; }

    bool empty() const { return numPending() == 0; }
    std::size_t numPending() const { return near_count_ + far_.size(); }

    /**
     * Run @p fn at absolute tick @p when (>= curTick).  The closure is
     * copied into the event's calendar slot and fired from a copy, so
     * it must be trivially copyable and trivially destructible.
     *
     * @p priority orders the event among its tick's events.  The
     * network passes negative priorities that encode (dst, src), so
     * its deliveries run in that order before every component event.
     */
    template <typename F>
    void
    scheduleOneShot(Tick when, F &&fn, int priority = prio_default)
    {
        using D = std::decay_t<F>;
        static_assert(sizeof(D) <= closure_bytes &&
                          alignof(D) <= alignof(std::uint64_t),
                      "one-shot closure too large for its calendar "
                      "slot; capture less");
        static_assert(std::is_trivially_copyable_v<D> &&
                          std::is_trivially_destructible_v<D>,
                      "a one-shot closure is copied bytewise and never "
                      "destroyed; capture only plain values");
        const std::uint32_t idx = acquireSlot();
        Slot &slot = slots_[idx];
        ::new (static_cast<void *>(slot.closure)) D(std::forward<F>(fn));
        slot.invoke = [](void *p) {
            (*std::launder(static_cast<D *>(p)))();
        };
        slot.priority = priority;
        push(when, idx);
    }

    /**
     * Peak number of live one-shots: pending plus the one firing (a
     * callback's own event stays live until it returns).
     */
    std::size_t oneShotNodesAllocated() const { return peak_live_; }

    /** How far the live one-shots are below their peak right now. */
    std::size_t oneShotNodesFree() const { return peak_live_ - live_; }

    /**
     * Entries skipped as stale while looking for the next event.  A
     * scheduled event always fires, so this is always 0; it stays for
     * perfbench's `sim.stale_pops` count.
     */
    std::uint64_t stalePops() const { return 0; }

    /** Events popped from the near-future calendar buckets. */
    std::uint64_t nearPops() const { return near_pops_; }

    /** Events popped straight from the far (overflow) heap. */
    std::uint64_t farPops() const { return far_pops_; }

    /**
     * Run until the queue drains or @p max_tick is passed.
     * @return the final current tick.
     */
    Tick run(Tick max_tick = fenceless::max_tick);

    /** Fire exactly one event if any is pending. @return true if fired. */
    bool step();

  private:
    static constexpr std::uint32_t no_slot = ~std::uint32_t{0};

    /** One pending event: the closure, its invoker and its priority. */
    struct Slot
    {
        alignas(std::uint64_t) unsigned char closure[closure_bytes];
        void (*invoke)(void *);
        int priority;
        std::uint32_t next; //!< next slot of its chain (or free chain)
    };

    /**
     * A chain of slots ascending by (priority, stamp); no_slot marks
     * the ends of an empty chain.
     */
    struct Lane
    {
        std::uint32_t head = no_slot;
        std::uint32_t tail = no_slot;
    };

    /**
     * The events of one tick.  Entries need no tick: a bucket only ever
     * holds entries of one tick, because every entry of a tick fires
     * before time moves past it.  lanes[0] holds negative priorities
     * and fires first; lanes[1] holds the rest.
     */
    struct Bucket
    {
        std::array<Lane, 2> lanes;
    };

    /** A far-heap entry; only the heap needs the stamp. */
    struct FarEntry
    {
        Tick when;
        std::uint64_t stamp;
        int priority;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.stamp > b.stamp;
        }
    };

    static constexpr std::size_t window_mask = bucket_window - 1;
    static constexpr std::size_t occupancy_words = bucket_window / 64;
    static_assert(bucket_window % 64 == 0 &&
                      (bucket_window & window_mask) == 0,
                  "the window is a power of two of whole 64-bit words");

    /** A free slot's index, growing the slot array if none is free. */
    std::uint32_t
    acquireSlot()
    {
        if (free_ == no_slot) {
            slots_.emplace_back();
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t idx = free_;
        free_ = slots_[idx].next;
        return idx;
    }

    /**
     * Queue the filled slot @p idx at @p when.  A tick in the past
     * wraps to a far distance, where pushFar() refuses it.
     */
    void
    push(Tick when, std::uint32_t idx)
    {
        if (++live_ > peak_live_)
            peak_live_ = live_;
        if (when - cur_tick_ < bucket_window)
            pushNear(when, idx);
        else
            pushFar(when, idx);
    }

    /** Queue slot @p idx on the far heap (@p when >= curTick). */
    void pushFar(Tick when, std::uint32_t idx);

    /**
     * Link slot @p idx into @p when's bucket (which must be inside the
     * window) after every slot of its lane whose priority is not
     * greater.
     */
    void pushNear(Tick when, std::uint32_t idx);

    /**
     * Make @p t the current tick and move every far entry it brings
     * into the window to its bucket, so a far entry always precedes,
     * in its bucket, the entries scheduled there directly.
     */
    void advance(Tick t);

    /**
     * The tick of the earliest pending event (the queue must not be
     * empty): the first occupied bucket from now on, else the far top.
     */
    Tick findNext() const;

    /** Pop the event findNext() located at @p when and run it. */
    void fire(Tick when);

    /** Every pending event's slot; free ones chain from free_. */
    std::vector<Slot> slots_;
    std::uint32_t free_ = no_slot;

    std::array<Bucket, bucket_window> buckets_;
    /** Bit i set iff bucket i holds an entry. */
    std::array<std::uint64_t, occupancy_words> occupied_{};
    std::size_t near_count_ = 0; //!< entries in buckets

    std::priority_queue<FarEntry, std::vector<FarEntry>, Later> far_;
    Tick cur_tick_ = 0;
    std::uint64_t next_stamp_ = 1; //!< far-heap insertion order

    std::uint64_t near_pops_ = 0;
    std::uint64_t far_pops_ = 0;

    std::size_t live_ = 0;      //!< pending plus firing one-shots
    std::size_t peak_live_ = 0; //!< high-water mark of live_
};

} // namespace fenceless::sim
