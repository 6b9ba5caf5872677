#include "sim/profiler.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "base/logging.hh"
#include "base/provenance.hh"
#include "base/stats_json.hh"

namespace fenceless::prof
{

const char *
cycleBucketName(CycleBucket b)
{
    switch (b) {
      case CycleBucket::Execute: return "execute";
      case CycleBucket::FenceStall: return "fence_stall";
      case CycleBucket::SbFull: return "sb_full";
      case CycleBucket::MissWait: return "miss_wait";
      case CycleBucket::RollbackDiscarded: return "rollback_discarded";
      case CycleBucket::NumBuckets: break;
    }
    return "?";
}

// ---------------------------------------------------------------------
// WasteProfiler
// ---------------------------------------------------------------------

void
WasteProfiler::configure(std::size_t num_pcs, std::uint32_t num_cores,
                         unsigned block_size,
                         std::vector<CodeSym> code_syms,
                         std::vector<DataSym> data_syms)
{
    flAssert(!enabled_, "profiler configured twice");
    flAssert(block_size / 8 <= 64,
             "profiler sub-block masks support block sizes up to 512");
    enabled_ = true;
    num_cores_ = num_cores;
    pc_cycles_.assign(num_pcs * num_buckets, 0);
    pc_execs_.assign(num_pcs, 0);
    staged_.assign(num_cores, {});
    line_cache_.assign(num_cores, {0, nullptr});
    code_syms_ = std::move(code_syms);
    data_syms_ = std::move(data_syms);
    std::sort(code_syms_.begin(), code_syms_.end(),
              [](const CodeSym &a, const CodeSym &b) {
                  return a.pc < b.pc;
              });
    std::sort(data_syms_.begin(), data_syms_.end(),
              [](const DataSym &a, const DataSym &b) {
                  return a.addr < b.addr;
              });
}

WasteProfiler::LineData &
WasteProfiler::lineDataSlow(Addr line)
{
    LineData &ld = lines_[line];
    if (ld.core_slots.empty())
        ld.core_slots.assign(num_cores_, 0);
    return ld;
}

void
WasteProfiler::lineInvalidated(Addr line)
{
    ++lineDataSlow(line).invalidations;
}

void
WasteProfiler::linePingPong(Addr line)
{
    ++lineDataSlow(line).ping_pongs;
}

void
WasteProfiler::commitEpoch(std::uint32_t core)
{
    for (const Staged &s : staged_[core]) {
        pc_cycles_[s.pc * num_buckets + s.bucket] += s.cycles;
        if (s.bucket ==
            static_cast<std::uint8_t>(CycleBucket::Execute)) {
            ++pc_execs_[s.pc];
        }
    }
    staged_[core].clear();
}

void
WasteProfiler::rollbackEpoch(std::uint32_t core, const char *cause,
                             Addr trigger_line, std::uint64_t victim_pc,
                             std::uint64_t discarded_insts)
{
    // Every cycle staged in the squashed epoch -- whatever bucket it
    // was headed for -- was wasted; charge it to the PC that spent it.
    constexpr std::size_t discarded =
        static_cast<std::size_t>(CycleBucket::RollbackDiscarded);
    for (const Staged &s : staged_[core])
        pc_cycles_[s.pc * num_buckets + discarded] += s.cycles;
    staged_[core].clear();

    auto &[count, insts] =
        rollbacks_[{std::string(cause), victim_pc, trigger_line}];
    ++count;
    insts += discarded_insts;
}

std::string
WasteProfiler::symbolizePc(std::uint64_t pc) const
{
    // Nearest preceding label, gem5 symbol-table style.
    auto it = std::upper_bound(
        code_syms_.begin(), code_syms_.end(), pc,
        [](std::uint64_t p, const CodeSym &s) { return p < s.pc; });
    if (it == code_syms_.begin()) {
        std::ostringstream os;
        os << "pc_" << pc;
        return os.str();
    }
    --it;
    if (it->pc == pc)
        return it->name;
    std::ostringstream os;
    os << it->name << "+" << (pc - it->pc);
    return os.str();
}

std::string
WasteProfiler::symbolizeLine(Addr line) const
{
    auto it = std::upper_bound(
        data_syms_.begin(), data_syms_.end(), line,
        [](Addr a, const DataSym &s) { return a < s.addr; });
    if (it != data_syms_.begin()) {
        --it;
        if (line < it->addr + it->size) {
            if (line == it->addr)
                return it->name;
            std::ostringstream os;
            os << it->name << "+0x" << std::hex << (line - it->addr);
            return os.str();
        }
    }
    std::ostringstream os;
    os << "0x" << std::hex << line;
    return os.str();
}

Profile
WasteProfiler::snapshot(const std::string &scope) const
{
    Profile p;
    if (!enabled_)
        return p;
    const std::string prefix = scope.empty() ? "" : scope + ";";

    for (std::size_t pc = 0; pc < pc_execs_.size(); ++pc) {
        const std::uint64_t *row = &pc_cycles_[pc * num_buckets];
        bool any = pc_execs_[pc] != 0;
        for (std::size_t b = 0; b < num_buckets && !any; ++b)
            any = row[b] != 0;
        if (!any)
            continue;
        Profile::PcRow &out = p.pcs[prefix + symbolizePc(pc)];
        out.pc = pc;
        out.execs += pc_execs_[pc];
        for (std::size_t b = 0; b < num_buckets; ++b)
            out.cycles[b] += row[b];
    }

    // unordered_map iteration order is not deterministic; sort the
    // line addresses before rendering keys.
    std::vector<Addr> addrs;
    addrs.reserve(lines_.size());
    for (const auto &[addr, ld] : lines_)
        addrs.push_back(addr);
    std::sort(addrs.begin(), addrs.end());
    for (Addr addr : addrs) {
        const LineData &ld = lines_.at(addr);
        Profile::LineRow &out = p.lines[prefix + symbolizeLine(addr)];
        out.addr = addr;
        out.touches += ld.touches;
        out.invalidations += ld.invalidations;
        out.ping_pongs += ld.ping_pongs;
        std::uint32_t cores = 0;
        std::uint64_t seen = 0, multi = 0;
        for (std::uint64_t mask : ld.core_slots) {
            if (!mask)
                continue;
            ++cores;
            multi |= seen & mask;
            seen |= mask;
        }
        out.cores_touched = std::max(out.cores_touched, cores);
        if (cores >= 2 && multi == 0)
            out.false_sharing = true;
    }

    for (const auto &[key, rec] : rollbacks_) {
        const auto &[cause, victim_pc, line] = key;
        const std::string victim = symbolizePc(victim_pc);
        const std::string line_sym = symbolizeLine(line);
        Profile::RollbackRow &out =
            p.rollbacks[prefix + cause + ";" + victim + ";" + line_sym];
        out.cause = cause;
        out.victim = prefix + victim;
        out.line = prefix + line_sym;
        out.count += rec.first;
        out.discarded_insts += rec.second;
    }
    return p;
}

// ---------------------------------------------------------------------
// Profile
// ---------------------------------------------------------------------

std::uint64_t
Profile::PcRow::wasted() const
{
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < num_buckets; ++b) {
        if (b != static_cast<std::size_t>(CycleBucket::Execute))
            total += cycles[b];
    }
    return total;
}

void
Profile::merge(const Profile &other)
{
    for (const auto &[key, row] : other.pcs) {
        PcRow &out = pcs[key];
        out.pc = row.pc;
        out.execs += row.execs;
        for (std::size_t b = 0; b < num_buckets; ++b)
            out.cycles[b] += row.cycles[b];
    }
    for (const auto &[key, row] : other.lines) {
        LineRow &out = lines[key];
        out.addr = row.addr;
        out.touches += row.touches;
        out.invalidations += row.invalidations;
        out.ping_pongs += row.ping_pongs;
        out.cores_touched =
            std::max(out.cores_touched, row.cores_touched);
        out.false_sharing = out.false_sharing || row.false_sharing;
    }
    for (const auto &[key, row] : other.rollbacks) {
        RollbackRow &out = rollbacks[key];
        out.cause = row.cause;
        out.victim = row.victim;
        out.line = row.line;
        out.count += row.count;
        out.discarded_insts += row.discarded_insts;
    }
}

void
Profile::writeJson(std::ostream &os) const
{
    // Versioned like the stats-JSON document (and checked the same way
    // by tools/fl_report); the two documents version independently.
    os << "{\n  \"schema_version\": " << profile_schema_version
       << ",\n  \"provenance\": " << provenance::jsonObject()
       << ",\n  \"buckets\": [";
    for (std::size_t b = 0; b < num_buckets; ++b) {
        os << (b ? ", " : "") << "\""
           << cycleBucketName(static_cast<CycleBucket>(b)) << "\"";
    }
    os << "],\n  \"pcs\": [";
    bool first = true;
    for (const auto &[key, row] : pcs) {
        os << (first ? "" : ",") << "\n    {\"sym\": "
           << statistics::jsonQuote(key) << ", \"pc\": " << row.pc
           << ", \"execs\": " << row.execs << ", \"cycles\": {";
        for (std::size_t b = 0; b < num_buckets; ++b) {
            os << (b ? ", " : "") << "\""
               << cycleBucketName(static_cast<CycleBucket>(b))
               << "\": " << row.cycles[b];
        }
        os << "}}";
        first = false;
    }
    os << "\n  ],\n  \"lines\": [";
    first = true;
    for (const auto &[key, row] : lines) {
        os << (first ? "" : ",") << "\n    {\"sym\": "
           << statistics::jsonQuote(key) << ", \"addr\": " << row.addr
           << ", \"touches\": " << row.touches
           << ", \"invalidations\": " << row.invalidations
           << ", \"ping_pongs\": " << row.ping_pongs
           << ", \"cores_touched\": " << row.cores_touched
           << ", \"false_sharing\": "
           << (row.false_sharing ? "true" : "false") << "}";
        first = false;
    }
    os << "\n  ],\n  \"rollbacks\": [";
    first = true;
    for (const auto &[key, row] : rollbacks) {
        os << (first ? "" : ",") << "\n    {\"cause\": "
           << statistics::jsonQuote(row.cause)
           << ", \"victim\": " << statistics::jsonQuote(row.victim)
           << ", \"line\": " << statistics::jsonQuote(row.line)
           << ", \"count\": " << row.count
           << ", \"discarded_insts\": " << row.discarded_insts << "}";
        first = false;
    }
    os << "\n  ]\n}\n";
}

void
Profile::writeFolded(std::ostream &os) const
{
    for (const auto &[key, row] : pcs) {
        for (std::size_t b = 0; b < num_buckets; ++b) {
            if (!row.cycles[b])
                continue;
            os << key << ";"
               << cycleBucketName(static_cast<CycleBucket>(b)) << " "
               << row.cycles[b] << "\n";
        }
    }
}

namespace
{

/** Deterministic ranking: value descending, key ascending. */
template <typename Map, typename ValueOf>
std::vector<typename Map::const_iterator>
rank(const Map &map, ValueOf value_of, std::size_t top_n)
{
    std::vector<typename Map::const_iterator> its;
    for (auto it = map.begin(); it != map.end(); ++it) {
        if (value_of(it->second) > 0)
            its.push_back(it);
    }
    std::sort(its.begin(), its.end(), [&](auto a, auto b) {
        const auto va = value_of(a->second);
        const auto vb = value_of(b->second);
        if (va != vb)
            return va > vb;
        return a->first < b->first;
    });
    if (its.size() > top_n)
        its.resize(top_n);
    return its;
}

} // namespace

void
Profile::writeReport(std::ostream &os, std::size_t top_n) const
{
    // Left-aligned name column: setw alone would butt an over-long
    // symbol straight against the next column, so always keep at
    // least two spaces of separation.
    const auto name_col = [&os](const std::string &s, std::size_t w) {
        os << s;
        os << (s.size() < w ? std::string(w - s.size(), ' ') : "  ");
    };

    os << "=== waste report ===\n";

    os << "\n-- top wasted cycles by instruction --\n";
    os << std::left << std::setw(40) << "symbol" << std::right
       << std::setw(12) << "wasted" << std::setw(12) << "fence"
       << std::setw(12) << "sb_full" << std::setw(12) << "miss"
       << std::setw(12) << "rollback" << std::setw(12) << "execs"
       << "\n";
    for (auto it : rank(
             pcs, [](const PcRow &r) { return r.wasted(); }, top_n)) {
        const PcRow &r = it->second;
        name_col(it->first, 40);
        os << std::right << std::setw(12) << r.wasted() << std::setw(12)
           << r.cycles[static_cast<std::size_t>(
                  CycleBucket::FenceStall)]
           << std::setw(12)
           << r.cycles[static_cast<std::size_t>(CycleBucket::SbFull)]
           << std::setw(12)
           << r.cycles[static_cast<std::size_t>(CycleBucket::MissWait)]
           << std::setw(12)
           << r.cycles[static_cast<std::size_t>(
                  CycleBucket::RollbackDiscarded)]
           << std::setw(12) << r.execs << "\n";
    }

    os << "\n-- top contended cache lines --\n";
    os << std::left << std::setw(40) << "line" << std::right
       << std::setw(12) << "invs" << std::setw(12) << "ping_pong"
       << std::setw(12) << "touches" << std::setw(8) << "cores"
       << "  false_sharing\n";
    for (auto it : rank(
             lines,
             [](const LineRow &r) {
                 return r.invalidations + r.ping_pongs;
             },
             top_n)) {
        const LineRow &r = it->second;
        name_col(it->first, 40);
        os << std::right << std::setw(12) << r.invalidations
           << std::setw(12)
           << r.ping_pongs << std::setw(12) << r.touches << std::setw(8)
           << r.cores_touched << "  "
           << (r.false_sharing ? "YES" : "no") << "\n";
    }

    os << "\n-- rollbacks by cause / victim / line --\n";
    os << std::left << std::setw(14) << "cause" << std::setw(30)
       << "victim" << std::setw(30) << "line" << std::right
       << std::setw(8) << "count" << std::setw(12) << "discarded"
       << "\n";
    for (auto it : rank(
             rollbacks, [](const RollbackRow &r) { return r.count; },
             top_n)) {
        const RollbackRow &r = it->second;
        name_col(r.cause, 14);
        name_col(r.victim, 30);
        name_col(r.line, 30);
        os << std::right << std::setw(8) << r.count << std::setw(12)
           << r.discarded_insts << "\n";
    }
}

} // namespace fenceless::prof
