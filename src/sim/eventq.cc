#include "sim/eventq.hh"

namespace fenceless::sim
{

Event::~Event()
{
    // An event must not be destroyed while scheduled: the queue would be
    // left holding a dangling pointer.  Components must deschedule their
    // events (or drain the queue) before tearing down.
    flAssert(!scheduled_, "event '", name(), "' destroyed while scheduled");
}

EventQueue::~EventQueue()
{
    // One-shot nodes are owned by the queue itself, so nodes still
    // pending at teardown (a run that exhausted its cycle budget) die
    // with the queue; unarm them so Event's destroyed-while-scheduled
    // check only guards externally owned events.
    for (auto &ev : oneshot_nodes_)
        ev->scheduled_ = false;
}

EventQueue::OneShot *
EventQueue::acquireOneShot()
{
    if (OneShot *ev = oneshot_free_) {
        oneshot_free_ = ev->next_free;
        ev->next_free = nullptr;
        --oneshot_free_count_;
        return ev;
    }
    oneshot_nodes_.push_back(std::make_unique<OneShot>(*this));
    return oneshot_nodes_.back().get();
}

void
EventQueue::releaseOneShot(OneShot *ev)
{
    ev->next_free = oneshot_free_;
    oneshot_free_ = ev;
    ++oneshot_free_count_;
}

void
EventQueue::pushNear(Tick when, int priority, std::uint64_t stamp,
                     Event *ev)
{
    Bucket &b = buckets_[when & (bucket_window - 1)];
    const NearEntry e{when, stamp, ev, priority};
    // Entries are kept ascending by (priority, stamp) from head on;
    // stamps grow monotonically, so a push at (or above) the current
    // tail priority -- the overwhelmingly common uniform-priority case
    // -- is a plain append.  A bucket may also hold stale leftovers of
    // a lapped tick; they take part in the ordering harmlessly (they
    // are dropped when examined) and never need to be stepped over
    // here because the order is on (priority, stamp) alone.
    const auto before = [](const NearEntry &a, const NearEntry &x) {
        if (a.priority != x.priority)
            return a.priority < x.priority;
        return a.stamp < x.stamp;
    };
    if (b.entries.empty() || !before(e, b.entries.back())) {
        b.entries.push_back(e);
    } else {
        auto pos = std::lower_bound(b.entries.begin() + b.head,
                                    b.entries.end(), e, before);
        b.entries.insert(pos, e);
    }
    ++near_count_;
    if (when < next_hint_)
        next_hint_ = when;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    flAssert(ev != nullptr, "scheduling a null event");
    flAssert(!ev->scheduled_, "event '", ev->name(),
             "' is already scheduled");
    flAssert(when >= cur_tick_, "event '", ev->name(),
             "' scheduled in the past (", when, " < ", cur_tick_, ")");

    ev->when_ = when;
    ev->stamp_ = next_stamp_++;
    ev->scheduled_ = true;
    if (when - cur_tick_ < bucket_window)
        pushNear(when, ev->priority_, ev->stamp_, ev);
    else
        far_.push(Entry{when, ev->priority_, ev->stamp_, ev});
    ++num_scheduled_;
}

void
EventQueue::deschedule(Event *ev)
{
    flAssert(ev != nullptr, "descheduling a null event");
    if (!ev->scheduled_)
        return;
    // Lazy removal: the stale queue entry is skipped when examined.
    ev->scheduled_ = false;
    --num_scheduled_;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    deschedule(ev);
    schedule(ev, when);
}

EventQueue::NextWhere
EventQueue::findNext(Tick &when_out)
{
    // Surface the far heap's live top and migrate every far entry that
    // has entered the near window, so the bucket scan below sees the
    // complete (when, priority, stamp) order.
    for (;;) {
        if (far_.empty())
            break;
        const Entry &top = far_.top();
        if (!top.event->scheduled_ || top.event->stamp_ != top.stamp) {
            far_.pop();
            ++stale_pops_;
            continue;
        }
        if (top.when - cur_tick_ >= bucket_window)
            break;
        pushNear(top.when, top.priority, top.stamp, top.event);
        far_.pop();
    }

    if (near_count_ > 0) {
        Tick t = next_hint_ > cur_tick_ ? next_hint_ : cur_tick_;
        for (; t - cur_tick_ < bucket_window; ++t) {
            Bucket &b = buckets_[t & (bucket_window - 1)];
            while (b.head < b.entries.size()) {
                const NearEntry &e = b.entries[b.head];
                // Live iff the event is still scheduled, this is the
                // scheduling that created the entry (stamp matches),
                // and the entry is not a leftover of a lapped tick.
                if (e.when == t && e.event->scheduled_ &&
                    e.event->stamp_ == e.stamp) {
                    next_hint_ = t;
                    when_out = t;
                    return NextWhere::Near;
                }
                ++b.head;
                --near_count_;
                ++stale_pops_;
                if (b.head == b.entries.size()) {
                    b.entries.clear();
                    b.head = 0;
                }
            }
            if (near_count_ == 0)
                break;
        }
        // No live entry anywhere in the window.
        next_hint_ = cur_tick_ + bucket_window;
    }

    if (far_.empty())
        return NextWhere::None;
    when_out = far_.top().when; // live: pruned above
    return NextWhere::Far;
}

Event *
EventQueue::popLive()
{
    Tick when = 0;
    const NextWhere where = findNext(when);
    if (where == NextWhere::None)
        return nullptr;

    flAssert(when >= cur_tick_, "event time went backwards");
    Event *ev = nullptr;
    if (where == NextWhere::Near) {
        Bucket &b = buckets_[when & (bucket_window - 1)];
        ev = b.entries[b.head].event;
        ++b.head;
        --near_count_;
        ++near_pops_;
        if (b.head == b.entries.size()) {
            b.entries.clear();
            b.head = 0;
        }
    } else {
        ev = far_.top().event;
        far_.pop();
        ++far_pops_;
    }
    cur_tick_ = when;
    ev->scheduled_ = false;
    --num_scheduled_;
    return ev;
}

bool
EventQueue::step()
{
    Event *ev = popLive();
    if (!ev)
        return false;
    ev->process();
    return true;
}

Tick
EventQueue::run(Tick max_tick)
{
    while (num_scheduled_ > 0) {
        // Peek at the next live event without firing it if it is beyond
        // the horizon.  The peek leaves it at the front of its bucket
        // (or the far top), so the popLive() inside step() re-finds it
        // in O(1) via next_hint_.
        Tick when = 0;
        if (findNext(when) == NextWhere::None)
            break;
        if (when > max_tick) {
            cur_tick_ = max_tick;
            return cur_tick_;
        }
        step();
    }
    return cur_tick_;
}

} // namespace fenceless::sim
