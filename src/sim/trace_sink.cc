#include "sim/trace_sink.hh"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

namespace fenceless::trace
{

namespace
{

constexpr Flag all_flags[] = {
    Flag::Core, Flag::SB, Flag::Net, Flag::Spec, Flag::Req, Flag::Stall,
    Flag::All,
};

} // namespace

const char *
flagName(Flag f)
{
    switch (f) {
      case Flag::Core: return "core";
      case Flag::SB: return "sb";
      case Flag::Net: return "net";
      case Flag::Spec: return "spec";
      case Flag::Req: return "req";
      case Flag::Stall: return "stall";
      case Flag::All: return "all";
    }
    return "?";
}

std::string
validFlagNames()
{
    std::string names;
    for (Flag f : all_flags) {
        if (!names.empty())
            names += ",";
        names += flagName(f);
    }
    return names;
}

bool
parseFlags(const std::string &spec, std::uint32_t &mask,
           std::string &error)
{
    std::uint32_t parsed = 0;
    std::string token;
    std::string unknown;
    std::istringstream is(spec);
    while (std::getline(is, token, ',')) {
        if (token.empty())
            continue;
        bool found = false;
        for (Flag f : all_flags) {
            if (token == flagName(f)) {
                parsed |= static_cast<std::uint32_t>(f);
                found = true;
                break;
            }
        }
        if (!found) {
            // Collect every bad token so one retry fixes them all.
            if (!unknown.empty())
                unknown += "', '";
            unknown += token;
        }
    }
    if (!unknown.empty()) {
        error = "unknown trace flag(s) '" + unknown + "' (valid: " +
                validFlagNames() + ")";
        return false;
    }
    mask = parsed;
    return true;
}

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::CoreCommit: return "instret";
      case EventKind::CoreStall: return "stall";
      case EventKind::SpecEpoch: return "spec_epoch";
      case EventKind::SpecRollback: return "rollback";
      case EventKind::SbOccupancy: return "sb_occupancy";
      case EventKind::ReqIssue: return "req_issue";
      case EventKind::ReqDirIngress: return "dir_ingress";
      case EventKind::ReqDirDone: return "dir_done";
      case EventKind::ReqFill: return "l1_fill";
      case EventKind::NetHop: return "net_hop";
      case EventKind::ReqStage: return "req_stage";
      case EventKind::NumKinds: break;
    }
    return "?";
}

std::uint16_t
TraceSink::registerComponent(const std::string &name)
{
    // Idempotent by name: the System pre-registers its component list
    // (in one fixed order), so the later registration by the component
    // itself must return the same id instead of a duplicate track.
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (components_[i] == name)
            return static_cast<std::uint16_t>(i);
    }
    components_.push_back(name);
    ring_heads_.push_back(0);
    if (ring_capacity_ > 0)
        ring_.resize(components_.size() * ring_capacity_);
    return static_cast<std::uint16_t>(components_.size() - 1);
}

void
TraceSink::configureRing(std::size_t records_per_comp,
                         std::uint32_t flags)
{
    if (records_per_comp == 0 || flags == 0) {
        ring_flags_ = 0;
        ring_capacity_ = 0;
        ring_.clear();
        return;
    }
    std::size_t cap = 1;
    while (cap < records_per_comp)
        cap <<= 1;
    ring_capacity_ = cap;
    ring_flags_ = flags;
    ring_.assign(components_.size() * ring_capacity_, TraceRecord{});
    std::fill(ring_heads_.begin(), ring_heads_.end(), 0);
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

using FlowChains = std::map<std::uint64_t, std::vector<const TraceRecord *>>;

/**
 * Write each request's records in tick order, one slice per record
 * (drawn by @p slice), chained by a flow named and categorised @p cat:
 * the "s"/"t"/"f" triple makes Perfetto draw arrows between the
 * request's slices.
 */
template <typename SliceFn>
void
writeFlowChains(EventWriter &w, const char *cat, FlowChains &chains,
                SliceFn slice)
{
    for (auto &[req_id, events] : chains) {
        std::stable_sort(events.begin(), events.end(),
                         [](const TraceRecord *a, const TraceRecord *b) {
                             return a->tick < b->tick;
                         });
        for (std::size_t i = 0; i < events.size(); ++i) {
            const TraceRecord &r = *events[i];
            slice(w.next(), r);
            if (events.size() < 2)
                continue;
            const char *ph = i == 0 ? "s"
                             : i + 1 == events.size() ? "f" : "t";
            std::ostream &os = w.next();
            writeCommon(os, cat, ph, r.tick, r.comp);
            os << ", \"cat\": \"" << cat << "\", \"id\": " << req_id;
            if (*ph == 'f')
                os << ", \"bp\": \"e\"";
            os << "}";
        }
    }
}

} // namespace

void
TraceSink::exportChromeJson(std::ostream &os,
                            const std::vector<TraceRecord> &records,
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

    // Request-lifetime events and sampled request-span stages
    // (synthesized from the reqtrace sinks) are grouped per request id
    // so the export can chain them with flow arrows; everything else
    // streams out in record order.
    FlowChains flows;
    FlowChains spans;

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

          case EventKind::ReqIssue:
          case EventKind::ReqDirIngress:
          case EventKind::ReqDirDone:
          case EventKind::ReqFill:
            if (r.a0 != 0)
                flows[r.a0].push_back(&r);
            break;

          case EventKind::ReqStage:
            if (r.a0 != 0)
                spans[r.a0].push_back(&r);
            break;

          case EventKind::NumKinds:
            break;
        }
    }

    // One short slice per request phase: arrows L1 -> directory -> L1
    // for each traced miss.
    const auto phase_slice = [](std::ostream &o, const TraceRecord &r) {
        const auto kind = static_cast<EventKind>(r.kind);
        writeCommon(o, eventKindName(kind), "X", r.tick, r.comp);
        o << ", \"dur\": 1, \"args\": {\"req\": " << r.a0;
        if (kind == EventKind::ReqIssue || kind == EventKind::ReqFill)
            o << ", \"block\": " << r.a1;
        o << "}}";
    };
    writeFlowChains(w, "req", flows, phase_slice);

    // Sampled request spans: one named slice per tiled stage on the
    // component that recorded it, so Perfetto draws the request's path
    // through the memory system as an arrow chain under the existing
    // guest tracks.
    const auto stage_slice = [this](std::ostream &o,
                                    const TraceRecord &r) {
        const std::string &sname = auxName(EventKind::ReqStage, r.aux);
        writeCommon(o, sname.empty() ? "req_stage" : sname.c_str(), "X",
                    r.tick, r.comp);
        o << ", \"dur\": " << (r.a1 ? r.a1 : 1)
          << ", \"args\": {\"req\": " << r.a0
          << ", \"cycles\": " << r.a1 << "}}";
    };
    writeFlowChains(w, "span", spans, stage_slice);

    os << "\n  ],\n  \"displayTimeUnit\": \"ns\"\n}\n";
}

} // namespace fenceless::trace
