/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * There is one kind of event: a pooled one-shot callback.  A scheduled
 * event always fires at its tick; it can be neither cancelled nor
 * moved.  A component that must drop a pending callback orphans it
 * instead: the callable captures a generation counter and returns at
 * once when the component's counter has moved on (the core does this
 * for its tick and its memory responses after a rollback).
 *
 * Determinism: events scheduled for the same tick fire in (priority,
 * insertion-sequence) order, so a run is reproducible regardless of queue
 * internals.
 *
 * The queue is a two-level calendar queue.  Nearly every event a cycle-
 * accurate simulator schedules lands within a few ticks of "now" (core
 * ticks at +1, cache hits at +hit_latency, network hops at +latency), so
 * the near future -- a circular window of @ref bucket_window per-tick
 * buckets -- gets O(1) push and pop.  Each bucket keeps its entries
 * sorted by (priority, stamp); with uniform priorities (the common case)
 * an insert is a plain append.  Events beyond the window overflow into a
 * binary heap (the far queue) and migrate into the buckets as the
 * current tick approaches them, so the exact (when, priority, stamp)
 * total order of a single heap is preserved bit-for-bit.
 *
 * Event callbacks -- cache responses, message deliveries, core ticks --
 * are the hottest allocation site in the simulator, so their nodes are
 * pooled: the queue keeps fired nodes on an intrusive free list and
 * reuses them, and the callable is stored inline in the node (no
 * std::function, no per-fire heap traffic once the pool has warmed up).
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
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

namespace detail
{

/**
 * Type-erased nullary callable with inline storage, purpose-built for
 * pooled one-shot events.  Closures up to inline_bytes (the common
 * case: `this` plus a few words) live in the node itself; larger ones
 * fall back to a heap box behind the same two-function dispatch.
 */
class OneShotFn
{
  public:
    static constexpr std::size_t inline_bytes = 48;

    OneShotFn() = default;
    ~OneShotFn() { clear(); }

    OneShotFn(const OneShotFn &) = delete;
    OneShotFn &operator=(const OneShotFn &) = delete;

    template <typename F>
    void
    emplace(F &&fn)
    {
        using D = std::decay_t<F>;
        clear();
        if constexpr (sizeof(D) <= inline_bytes &&
                      alignof(D) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(storage_)) D(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<D *>(p))(); };
            if constexpr (std::is_trivially_destructible_v<D>)
                destroy_ = nullptr;
            else
                destroy_ = [](void *p) { static_cast<D *>(p)->~D(); };
        } else {
            using Box = D *;
            ::new (static_cast<void *>(storage_))
                Box(new D(std::forward<F>(fn)));
            invoke_ = [](void *p) { (**static_cast<Box *>(p))(); };
            destroy_ = [](void *p) { delete *static_cast<Box *>(p); };
        }
    }

    /** Run the stored callable (one must be stored). */
    void operator()() { invoke_(storage_); }

    /** Destroy the stored callable, returning to the empty state. */
    void
    clear()
    {
        if (destroy_)
            destroy_(storage_);
        invoke_ = nullptr;
        destroy_ = nullptr;
    }

  private:
    alignas(std::max_align_t) unsigned char storage_[inline_bytes];
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
};

} // namespace detail

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
     * (+hit_latency) and network hops (+latency+serialization) all land
     * well inside it; only long-horizon events (stat snapshots, parked
     * retries under backpressure) overflow into the far heap.
     */
    static constexpr std::size_t bucket_window = 64;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    Tick curTick() const { return cur_tick_; }

    bool empty() const { return numPending() == 0; }
    std::size_t numPending() const { return near_count_ + far_.size(); }

    /**
     * Run @p fn at absolute tick @p when (>= curTick).  The event node
     * comes from the queue's free-list pool and returns to it after
     * firing; the steady state allocates nothing.
     *
     * @p priority orders the event among its tick's events.  The
     * network passes negative priorities that encode (dst, src), so
     * its deliveries run in that order before every component event.
     */
    template <typename F>
    void
    scheduleOneShot(Tick when, F &&fn, int priority = prio_default)
    {
        Node *node = acquireNode();
        node->fn.emplace(std::forward<F>(fn));
        push(when, priority, node);
    }

    /** Total event nodes ever allocated (pool high-water mark). */
    std::size_t oneShotNodesAllocated() const { return nodes_.size(); }

    /** Event nodes currently parked on the free list. */
    std::size_t oneShotNodesFree() const { return free_count_; }

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
    /** A pooled event: the inline callable and the free-list link. */
    struct Node
    {
        detail::OneShotFn fn;
        Node *next_free = nullptr;
    };

    /** A far-heap entry (also the migration record). */
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t stamp;
        Node *node;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.stamp > b.stamp;
        }
    };

    /**
     * A near-window entry.  It needs no tick: a bucket only ever holds
     * entries of one tick, because every entry of a tick fires before
     * time moves past it.
     */
    struct NearEntry
    {
        std::uint64_t stamp;
        Node *node;
        int priority;
    };

    /**
     * One calendar bucket: entries sorted ascending by (priority,
     * stamp) from `head` on; the prefix before `head` has been popped.
     * The vector is recycled (clear keeps capacity) once drained.
     */
    struct Bucket
    {
        std::vector<NearEntry> entries;
        std::size_t head = 0;
    };

    /** Stamp @p node and insert it into the calendar or the far heap. */
    void push(Tick when, int priority, Node *node);

    /** Insert into the calendar (when must be inside the window). */
    void pushNear(Tick when, int priority, std::uint64_t stamp,
                  Node *node);

    /**
     * Migrate far entries that entered the window and return the tick
     * of the earliest pending event (the queue must not be empty).  It
     * heads its bucket if any near entry exists, else the far heap.
     */
    Tick findNext();

    /** Pop the event findNext() located at @p when and run it. */
    void fire(Tick when);

    /** Take a node from the free list, growing the pool if empty. */
    Node *acquireNode();

    std::array<Bucket, bucket_window> buckets_;
    std::size_t near_count_ = 0; //!< entries in buckets
    /**
     * No near entry exists at any tick < next_hint_.  Lets the bucket
     * scan resume where the previous one stopped instead of re-walking
     * empty buckets from cur_tick_ on every pop.
     */
    Tick next_hint_ = 0;

    std::priority_queue<Entry, std::vector<Entry>, Later> far_;
    Tick cur_tick_ = 0;
    std::uint64_t next_stamp_ = 1;

    std::uint64_t near_pops_ = 0;
    std::uint64_t far_pops_ = 0;

    std::vector<std::unique_ptr<Node>> nodes_; //!< ownership
    Node *free_ = nullptr;                     //!< free list head
    std::size_t free_count_ = 0;
};

} // namespace fenceless::sim
