#include "sim/blackbox.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>

namespace fenceless::trace
{

std::vector<TraceRecord>
blackboxRecords(const TraceSink &sink)
{
    // Canonical order: gather per component (component-id order), then
    // stable-sort by tick.  Per-component streams are already
    // tick-monotone, so this is a time merge where same-tick records
    // from different components land in component-id order.
    std::vector<TraceRecord> out;
    for (std::size_t c = 0; c < sink.components().size(); ++c) {
        sink.forEachRingRecord(static_cast<std::uint16_t>(c),
                               [&](const TraceRecord &r) {
                                   out.push_back(r);
                               });
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.tick < b.tick;
                     });
    return out;
}

void
writeBlackboxJson(std::ostream &os, const TraceSink &sink,
                  const std::string &provenance_json)
{
    const auto records = blackboxRecords(sink);
    // Events pushed but since overwritten: report them as dropped so
    // the dump is honest about being a tail, not the full history.
    const std::uint64_t overwritten =
        sink.ringPushes() - static_cast<std::uint64_t>(records.size());
    sink.exportChromeJson(os, records, overwritten, provenance_json);
}

namespace
{

void
writeOne(std::ostream &os, const TraceSink &sink, const TraceRecord &r)
{
    const auto kind = static_cast<EventKind>(r.kind);
    os << "    @" << std::setw(12) << r.tick << "  "
       << eventKindName(kind);
    switch (kind) {
      case EventKind::CoreCommit:
        os << " insts=" << r.a0;
        break;
      case EventKind::CoreStall:
        os << " begin=" << r.a0 << " reason="
           << sink.auxName(kind, r.aux);
        break;
      case EventKind::SpecEpoch:
        os << " begin=" << r.a0 << " insts=" << r.a1 << " outcome="
           << (r.aux ? "commit" : "rollback");
        break;
      case EventKind::SpecRollback:
        os << " cause=" << sink.auxName(kind, r.aux)
           << " discarded=" << r.a1;
        break;
      case EventKind::SbOccupancy:
        os << " entries=" << r.a0;
        break;
      case EventKind::ReqIssue:
      case EventKind::ReqFill:
        os << " req=" << r.a0 << " block=0x" << std::hex << r.a1
           << std::dec;
        break;
      case EventKind::ReqDirIngress:
      case EventKind::ReqDirDone:
        os << " req=" << r.a0 << " a1=" << r.a1;
        break;
      case EventKind::NetHop:
        os << " req=" << r.a0 << " latency=" << r.a1 << " msg="
           << sink.auxName(kind, r.aux);
        break;
      case EventKind::ReqStage:
      case EventKind::NumKinds:
        break;
    }
    os << "\n";
}

} // namespace

void
writeBlackboxTail(std::ostream &os, const TraceSink &sink,
                  std::size_t per_component)
{
    os << "flight recorder tail (last " << per_component
       << " events per component, " << sink.ringPushes()
       << " recorded total):\n";
    for (std::size_t c = 0; c < sink.components().size(); ++c) {
        std::vector<TraceRecord> tail;
        sink.forEachRingRecord(
            static_cast<std::uint16_t>(c),
            [&](const TraceRecord &r) { tail.push_back(r); });
        if (tail.size() > per_component)
            tail.erase(tail.begin(),
                       tail.end() -
                           static_cast<std::ptrdiff_t>(per_component));
        os << "  " << sink.components()[c];
        if (tail.empty()) {
            os << ": (no events)\n";
            continue;
        }
        os << ":\n";
        for (const TraceRecord &r : tail)
            writeOne(os, sink, r);
    }
}

} // namespace fenceless::trace
