#include "sim/trace_sink.hh"

#include <algorithm>
#include <ostream>
#include <utility>

#include "sim/reqtrace.hh"

namespace fenceless::trace
{

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::CoreCommit: return "instret";
      case EventKind::CoreStall: return "stall";
      case EventKind::SpecEpoch: return "spec_epoch";
      case EventKind::SpecRollback: return "rollback";
      case EventKind::SbOccupancy: return "sb_occupancy";
      case EventKind::NetHop: return "net_hop";
      case EventKind::NumKinds: break;
    }
    return "?";
}

std::uint16_t
TraceSink::registerComponent(const std::string &name)
{
    components_.push_back(name);
    rings_.push_back(Ring{std::vector<TraceRecord>(ring_capacity_), 0});
    return static_cast<std::uint16_t>(components_.size() - 1);
}

void
TraceSink::configureRing(std::size_t records_per_comp)
{
    std::size_t cap = 0;
    if (records_per_comp != 0) {
        cap = 1;
        while (cap < records_per_comp)
            cap <<= 1;
    }
    ring_capacity_ = cap;
    ring_mask_ = cap ? ring_kinds : 0;
    for (Ring &ring : rings_)
        ring = Ring{std::vector<TraceRecord>(cap), 0};
}

void
TraceSink::setAuxNames(EventKind kind, std::vector<std::string> names)
{
    const auto idx = static_cast<std::size_t>(kind);
    if (aux_names_.size() <= idx)
        aux_names_.resize(idx + 1);
    aux_names_[idx] = std::move(names);
}

const std::string &
TraceSink::auxName(EventKind kind, std::uint32_t aux) const
{
    static const std::string empty;
    const auto idx = static_cast<std::size_t>(kind);
    if (idx >= aux_names_.size() || aux >= aux_names_[idx].size())
        return empty;
    return aux_names_[idx][aux];
}

void
TraceSink::addChunk()
{
    chunks_.emplace_back();
    chunks_.back().reserve(chunk_records);
}

void
TraceSink::clear()
{
    chunks_.clear();
    size_ = 0;
    dropped_ = 0;
}

void
sortCanonical(std::vector<TraceRecord> &records)
{
    std::stable_sort(records.begin(), records.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.tick != b.tick ? a.tick < b.tick
                                                 : a.comp < b.comp;
                     });
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

namespace
{

/** Comma-separated event stream writer (no trailing comma juggling). */
class EventWriter
{
  public:
    explicit EventWriter(std::ostream &os) : os_(os) {}

    std::ostream &
    next()
    {
        os_ << (first_ ? "\n    " : ",\n    ");
        first_ = false;
        return os_;
    }

  private:
    std::ostream &os_;
    bool first_ = true;
};

void
writeCommon(std::ostream &os, const char *name, const char *ph,
            Tick ts, std::uint16_t tid)
{
    os << "{\"name\": \"" << name << "\", \"ph\": \"" << ph
       << "\", \"ts\": " << ts << ", \"pid\": 0, \"tid\": " << tid;
}

} // namespace

void
TraceSink::exportChromeJson(std::ostream &os,
                            const std::vector<TraceRecord> &records,
                            const reqtrace::SpanSet &spans,
                            std::uint64_t dropped,
                            const std::string &provenance_json) const
{
    if (!provenance_json.empty())
        os << "{\"provenance\": " << provenance_json
           << ",\n \"traceEvents\": [";
    else
        os << "{\"traceEvents\": [";
    EventWriter w(os);

    // Track names.  One Chrome "thread" per simulated component.
    w.next() << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0"
             << ", \"args\": {\"name\": \"fenceless\"}}";
    for (std::size_t i = 0; i < components_.size(); ++i) {
        w.next() << "{\"name\": \"thread_name\", \"ph\": \"M\", "
                 << "\"pid\": 0, \"tid\": " << i
                 << ", \"args\": {\"name\": \"" << components_[i]
                 << "\"}}";
    }
    if (dropped) {
        w.next() << "{\"name\": \"dropped_events\", \"ph\": \"M\", "
                 << "\"pid\": 0, \"args\": {\"count\": " << dropped
                 << "}}";
    }

    for (const TraceRecord &r : records) {
        const auto kind = static_cast<EventKind>(r.kind);
        const char *name = eventKindName(kind);
        switch (kind) {
          case EventKind::CoreCommit:
            writeCommon(w.next(), name, "C", r.tick, r.comp);
            os << ", \"args\": {\"insts\": " << r.a0 << "}}";
            break;

          case EventKind::SbOccupancy:
            writeCommon(w.next(), name, "C", r.tick, r.comp);
            os << ", \"args\": {\"entries\": " << r.a0 << "}}";
            break;

          case EventKind::CoreStall: {
            // Recorded once at stall end; a0 carries the begin tick.
            const Tick dur = r.tick > r.a0 ? r.tick - r.a0 : 1;
            writeCommon(w.next(), name, "X", r.a0, r.comp);
            os << ", \"dur\": " << dur << ", \"args\": {\"reason\": \""
               << auxName(kind, r.aux) << "\"}}";
            break;
          }

          case EventKind::SpecEpoch: {
            const Tick dur = r.tick > r.a0 ? r.tick - r.a0 : 1;
            writeCommon(w.next(), name, "X", r.a0, r.comp);
            os << ", \"dur\": " << dur
               << ", \"args\": {\"outcome\": \""
               << (r.aux ? "commit" : "rollback")
               << "\", \"insts\": " << r.a1 << "}}";
            break;
          }

          case EventKind::SpecRollback:
            writeCommon(w.next(), name, "i", r.tick, r.comp);
            os << ", \"s\": \"t\", \"args\": {\"cause\": \""
               << auxName(kind, r.aux) << "\", \"discarded_insts\": "
               << r.a1 << "}}";
            break;

          case EventKind::NetHop:
            writeCommon(w.next(), name, "i", r.tick, r.comp);
            os << ", \"s\": \"t\", \"args\": {\"req\": " << r.a0
               << ", \"latency\": " << r.a1 << ", \"msg\": \""
               << auxName(kind, r.aux) << "\"}}";
            break;

          case EventKind::NumKinds:
            break;
        }
    }

    // Sampled request spans: one named slice per tiled stage on the
    // component that recorded it, in tick order, chained by a "span"
    // flow -- the "s"/"t"/"f" triple makes Perfetto draw the request's
    // path through the memory system as an arrow chain under the
    // existing guest tracks.  A primary span and its coalesced-waiter
    // spans share the request id, so they are one flow: their stages
    // merge by tick, each span's stages in order, primary first.
    std::vector<const reqtrace::SpanStage *> stages;
    for (auto sp = spans.spans.begin(); sp != spans.spans.end();) {
        const std::uint64_t req_id = sp->req_id;
        stages.clear();
        for (; sp != spans.spans.end() && sp->req_id == req_id; ++sp) {
            for (const reqtrace::SpanStage &st : sp->stages)
                stages.push_back(&st);
        }
        std::stable_sort(stages.begin(), stages.end(),
                         [](const reqtrace::SpanStage *a,
                            const reqtrace::SpanStage *b) {
                             return a->at < b->at;
                         });
        for (std::size_t i = 0; i < stages.size(); ++i) {
            const reqtrace::SpanStage &st = *stages[i];
            writeCommon(w.next(), reqtrace::stageName(st.stage), "X",
                        st.at, st.node);
            os << ", \"dur\": " << (st.cycles ? st.cycles : 1)
               << ", \"args\": {\"req\": " << req_id
               << ", \"cycles\": " << st.cycles << "}}";
            if (stages.size() < 2)
                continue;
            const char *ph = i == 0 ? "s"
                             : i + 1 == stages.size() ? "f" : "t";
            writeCommon(w.next(), "span", ph, st.at, st.node);
            os << ", \"cat\": \"span\", \"id\": " << req_id;
            if (*ph == 'f')
                os << ", \"bp\": \"e\"";
            os << "}";
        }
    }

    os << "\n  ],\n  \"displayTimeUnit\": \"ns\"\n}\n";
}

} // namespace fenceless::trace
