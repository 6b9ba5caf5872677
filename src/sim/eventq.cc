#include "sim/eventq.hh"

#include <algorithm>

#include "base/logging.hh"

namespace fenceless::sim
{

EventQueue::Node *
EventQueue::acquireNode()
{
    if (Node *node = free_) {
        free_ = node->next_free;
        node->next_free = nullptr;
        --free_count_;
        return node;
    }
    nodes_.push_back(std::make_unique<Node>());
    return nodes_.back().get();
}

void
EventQueue::push(Tick when, int priority, Node *node)
{
    flAssert(when >= cur_tick_, "event scheduled in the past (", when,
             " < ", cur_tick_, ")");
    const std::uint64_t stamp = next_stamp_++;
    if (when - cur_tick_ < bucket_window)
        pushNear(when, priority, stamp, node);
    else
        far_.push(Entry{when, priority, stamp, node});
}

void
EventQueue::pushNear(Tick when, int priority, std::uint64_t stamp,
                     Node *node)
{
    Bucket &b = buckets_[when & (bucket_window - 1)];
    const NearEntry e{stamp, node, priority};
    // Entries are kept ascending by (priority, stamp) from head on;
    // stamps grow monotonically, so a push at (or above) the current
    // tail priority -- the overwhelmingly common uniform-priority case
    // -- is a plain append.
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

Tick
EventQueue::findNext()
{
    // Migrate every far entry that has entered the near window, so the
    // bucket scan below sees the complete (when, priority, stamp) order.
    while (!far_.empty() && far_.top().when - cur_tick_ < bucket_window) {
        const Entry &top = far_.top();
        pushNear(top.when, top.priority, top.stamp, top.node);
        far_.pop();
    }
    if (near_count_ == 0)
        return far_.top().when;

    Tick t = std::max(next_hint_, cur_tick_);
    while (buckets_[t & (bucket_window - 1)].entries.empty())
        ++t;
    next_hint_ = t;
    return t;
}

void
EventQueue::fire(Tick when)
{
    flAssert(when >= cur_tick_, "event time went backwards");
    Node *node = nullptr;
    if (near_count_ > 0) {
        Bucket &b = buckets_[when & (bucket_window - 1)];
        node = b.entries[b.head].node;
        ++b.head;
        --near_count_;
        ++near_pops_;
        if (b.head == b.entries.size()) {
            b.entries.clear();
            b.head = 0;
        }
    } else {
        node = far_.top().node;
        far_.pop();
        ++far_pops_;
    }
    cur_tick_ = when;

    // Run, destroy the closure, then recycle the node.  The callable
    // may schedule further events; this node is not on the free list
    // while it runs, so reentrant scheduling can never hand it out
    // twice.
    node->fn();
    node->fn.clear();
    node->next_free = free_;
    free_ = node;
    ++free_count_;
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
            cur_tick_ = max_tick;
            break;
        }
        fire(when);
    }
    return cur_tick_;
}

} // namespace fenceless::sim
