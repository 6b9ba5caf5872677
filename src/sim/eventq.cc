#include "sim/eventq.hh"

#include "base/logging.hh"

namespace fenceless::sim
{

void
EventQueue::pushFar(Tick when, std::uint32_t idx)
{
    flAssert(when >= cur_tick_, "event scheduled in the past (", when,
             " < ", cur_tick_, ")");
    far_.push(FarEntry{when, next_stamp_++, slots_[idx].priority, idx});
}

void
EventQueue::pushNear(Tick when, std::uint32_t idx)
{
    const std::size_t b = when & window_mask;
    Slot &slot = slots_[idx];
    Lane &lane = buckets_[b].lanes[slot.priority < 0 ? 0 : 1];
    // Every slot already in the lane has a smaller stamp (see
    // advance()), so the new one goes after all slots of equal
    // priority -- with uniform priorities (the common case) at the
    // tail.
    if (lane.tail != no_slot && slot.priority >= slots_[lane.tail].priority) {
        slots_[lane.tail].next = idx;
        slot.next = no_slot;
        lane.tail = idx;
    } else {
        std::uint32_t *link = &lane.head;
        while (*link != no_slot && slots_[*link].priority <= slot.priority)
            link = &slots_[*link].next;
        slot.next = *link;
        *link = idx;
        if (slot.next == no_slot)
            lane.tail = idx;
    }
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    ++near_count_;
}

void
EventQueue::advance(Tick t)
{
    cur_tick_ = t;
    while (!far_.empty() && far_.top().when - cur_tick_ < bucket_window) {
        pushNear(far_.top().when, far_.top().slot);
        far_.pop();
    }
}

Tick
EventQueue::findNext() const
{
    if (near_count_ == 0)
        return far_.top().when;
    // The first occupied bucket at or after now's, circularly: every
    // near entry lies in [now, now + bucket_window).
    const std::size_t start = cur_tick_ & window_mask;
    std::size_t word = start / 64;
    std::uint64_t bits =
        occupied_[word] & (~std::uint64_t{0} << (start % 64));
    while (bits == 0) {
        word = (word + 1) % occupancy_words;
        bits = occupied_[word];
    }
    const std::size_t b =
        word * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
    return cur_tick_ + ((b - start) & window_mask);
}

void
EventQueue::fire(Tick when)
{
    flAssert(when >= cur_tick_, "event time went backwards");
    std::uint32_t idx;
    if (near_count_ > 0) {
        const std::size_t b = when & window_mask;
        Bucket &bucket = buckets_[b];
        Lane &lane = bucket.lanes[bucket.lanes[0].head == no_slot ? 1 : 0];
        idx = lane.head;
        lane.head = slots_[idx].next;
        if (lane.head != no_slot) {
            // Likely the next to fire: load it while this one runs.
            __builtin_prefetch(&slots_[lane.head]);
        } else {
            lane.tail = no_slot;
            if (bucket.lanes[0].head == no_slot &&
                bucket.lanes[1].head == no_slot)
                occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
        }
        --near_count_;
        ++near_pops_;
    } else {
        idx = far_.top().slot;
        far_.pop();
        ++far_pops_;
    }
    // Run a copy: the callback may schedule, reusing this slot or
    // moving the array.
    Slot fired = slots_[idx];
    slots_[idx].next = free_;
    free_ = idx;
    if (when != cur_tick_)
        advance(when);

    // The event stays live until its callback returns, so a callback
    // that schedules counts toward the peak with its own event.
    fired.invoke(fired.closure);
    --live_;
}

bool
EventQueue::step()
{
    if (empty())
        return false;
    fire(findNext());
    return true;
}

Tick
EventQueue::run(Tick max_tick)
{
    while (!empty()) {
        const Tick when = findNext();
        if (when > max_tick) {
            advance(max_tick);
            break;
        }
        fire(when);
    }
    return cur_tick_;
}

} // namespace fenceless::sim
