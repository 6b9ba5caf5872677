#include "sim/reqtrace.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "base/logging.hh"

namespace fenceless::reqtrace
{

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::L1Queue: return "l1_queue";
      case Stage::ReqNet: return "req_net";
      case Stage::DirQueue: return "dir_queue";
      case Stage::DirAccess: return "dir_access";
      case Stage::Dram: return "dram";
      case Stage::DirBlocked: return "dir_blocked";
      case Stage::DirFwd: return "dir_fwd";
      case Stage::DirInv: return "dir_inv";
      case Stage::ReplyNet: return "reply_net";
      case Stage::FillWait: return "fill_wait";
      case Stage::Done: return "done";
      case Stage::NumStages: break;
    }
    return "?";
}

Stage
Span::dominantStage() const
{
    Tick best = 0;
    Stage owner = Stage::NumStages;
    for (const SpanStage &st : stages) {
        if (owner == Stage::NumStages || st.cycles > best) {
            best = st.cycles;
            owner = st.stage;
        }
    }
    return owner;
}

SpanSet
assembleSpans(std::vector<SpanEvent> events, std::uint64_t period)
{
    SpanSet out;
    out.period = period;

    // Canonical order: group by request, then by time.  stable_sort
    // preserves the append order inside a (req, tick) group, and such a
    // group is always recorded by a single component (see the header
    // comment).
    std::stable_sort(events.begin(), events.end(),
                     [](const SpanEvent &a, const SpanEvent &b) {
                         if (a.req_id != b.req_id)
                             return a.req_id < b.req_id;
                         return a.tick < b.tick;
                     });

    // A complete span is at least two events (ReqNet + Done); sizing
    // for the worst case keeps the span vector from reallocating while
    // holding per-span stage vectors (finalize runs once per System,
    // but at --tail-sample=1 it is O(misses), so it shows up in
    // BM_FullSystemReqTrace).
    out.spans.reserve(events.size() / 2);

    std::vector<const SpanEvent *> waiters;
    std::size_t i = 0;
    while (i < events.size()) {
        const std::uint64_t req = events[i].req_id;
        std::size_t end = i;
        while (end < events.size() && events[end].req_id == req)
            ++end;

        // Split the group into the tiled primary path and the flagged
        // coalesced-waiter boundary events.
        Span span;
        span.req_id = req;
        span.stages.reserve(end - i);
        waiters.clear();
        bool complete = false;
        for (std::size_t j = i; j < end; ++j) {
            const SpanEvent &ev = events[j];
            if (ev.flags & span_flag_waiter) {
                waiters.push_back(&ev);
                continue;
            }
            const auto stage = static_cast<Stage>(ev.stage);
            if (span.stages.empty()) {
                span.issue = ev.tick;
                span.block = ev.a0;
                span.pc = ev.aux;
            }
            if (!span.stages.empty())
                span.stages.back().cycles =
                    ev.tick - span.stages.back().at;
            if (stage == Stage::Done) {
                span.done = ev.tick;
                span.waiters = ev.aux;
                complete = true;
                break;
            }
            if (ev.flags & span_flag_retry)
                ++span.retries;
            span.stages.push_back(SpanStage{stage, ev.tick, 0, ev.node,
                                            ev.aux, ev.flags});
        }
        i = end;

        if (!complete || span.stages.empty()) {
            ++out.incomplete;
            continue;
        }
        out.spans.push_back(std::move(span));

        // Each coalesced waiter becomes its own single-stage span: the
        // interval from its arrival at the L1 to the fill that served
        // it is exactly that access's MSHR wait.  (Copy the primary's
        // fields: push_back below may reallocate the vector.)
        const Tick pdone = out.spans.back().done;
        const Addr pblock = out.spans.back().block;
        for (const SpanEvent *w : waiters) {
            if (w->tick > pdone)
                continue; // queued after the fill; defensive
            Span ws;
            ws.req_id = req;
            ws.issue = w->tick;
            ws.done = pdone;
            ws.block = pblock;
            ws.pc = w->aux;
            ws.waiter = true;
            ws.stages.push_back(SpanStage{Stage::L1Queue, w->tick,
                                          pdone - w->tick,
                                          w->node, 0, w->flags});
            out.spans.push_back(std::move(ws));
        }
    }
    return out;
}

Tick
nearestRank(const std::vector<Tick> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank < 1)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

TailAttribution
attributeStages(const SpanSet &set)
{
    TailAttribution out;
    out.spans = set.spans.size();

    std::vector<Tick> e2e;
    e2e.reserve(set.spans.size());
    for (const Span &s : set.spans)
        e2e.push_back(s.latency());
    std::sort(e2e.begin(), e2e.end());
    out.e2e_p50 = nearestRank(e2e, 0.50);
    out.e2e_p95 = nearestRank(e2e, 0.95);
    out.e2e_p99 = nearestRank(e2e, 0.99);
    out.e2e_p999 = nearestRank(e2e, 0.999);
    for (Tick t : e2e)
        out.e2e_cycles += t;

    // Per-stage contribution per span (stages may appear several times
    // in one span -- retries -- and are summed per span first).
    std::vector<std::vector<Tick>> contrib(num_stages);
    std::vector<std::uint64_t> cycles(num_stages, 0);
    std::vector<std::uint64_t> owned(num_stages, 0);
    for (const Span &s : set.spans) {
        std::array<Tick, num_stages> per{};
        for (const SpanStage &st : s.stages)
            per[static_cast<std::size_t>(st.stage)] += st.cycles;
        for (std::size_t b = 0; b < num_stages; ++b) {
            if (per[b] == 0)
                continue;
            if (contrib[b].empty())
                contrib[b].reserve(set.spans.size());
            contrib[b].push_back(per[b]);
            cycles[b] += per[b];
        }
        if (s.latency() > out.e2e_p99) {
            ++out.tail_spans;
            const Stage dom = s.dominantStage();
            if (dom != Stage::NumStages)
                ++owned[static_cast<std::size_t>(dom)];
        }
    }

    for (std::size_t b = 0; b < num_stages; ++b) {
        if (contrib[b].empty())
            continue;
        StageRow row;
        row.stage = static_cast<Stage>(b);
        row.spans = contrib[b].size();
        row.cycles = cycles[b];
        std::sort(contrib[b].begin(), contrib[b].end());
        row.p50 = nearestRank(contrib[b], 0.50);
        row.p95 = nearestRank(contrib[b], 0.95);
        row.p99 = nearestRank(contrib[b], 0.99);
        row.p999 = nearestRank(contrib[b], 0.999);
        row.tail_owned = owned[b];
        out.rows.push_back(row);
    }
    return out;
}

std::vector<const StageRow *>
TailAttribution::tailRanking() const
{
    std::vector<const StageRow *> ranked;
    ranked.reserve(rows.size());
    for (const StageRow &r : rows)
        ranked.push_back(&r);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const StageRow *a, const StageRow *b) {
                         return a->tail_owned > b->tail_owned;
                     });
    return ranked;
}

std::vector<const Span *>
topK(const SpanSet &set, std::size_t k)
{
    std::vector<const Span *> all;
    for (const Span &s : set.spans) {
        if (!s.waiter)
            all.push_back(&s);
    }
    std::sort(all.begin(), all.end(),
              [](const Span *a, const Span *b) {
                  if (a->latency() != b->latency())
                      return a->latency() > b->latency();
                  return a->req_id < b->req_id;
              });
    if (all.size() > k)
        all.resize(k);
    return all;
}

} // namespace fenceless::reqtrace
