#include "analysis/loader.hh"

#include <fstream>
#include <sstream>

#include "base/stats_json.hh"
#include "sim/profiler.hh"

namespace fenceless::analysis
{

double
StatValue::primary() const
{
    if (kind == "distribution")
        return field("total");
    if (kind == "histogram")
        return field("n");
    return field("value");
}

std::vector<std::string>
StatsRun::groupNames() const
{
    std::vector<std::string> names;
    names.reserve(groups.size());
    for (const auto &[name, stats] : groups)
        names.push_back(name);
    return names;
}

const StatValue *
StatsRun::find(const std::string &group, const std::string &stat) const
{
    auto git = groups.find(group);
    if (git == groups.end())
        return nullptr;
    auto sit = git->second.find(stat);
    return sit == git->second.end() ? nullptr : &sit->second;
}

double
StatsRun::scalar(const std::string &group, const std::string &stat) const
{
    const StatValue *v = find(group, stat);
    return v ? v->primary() : 0.0;
}

namespace
{

bool
groupMatches(const std::string &name, const std::string &prefix)
{
    // "l2dir" matches itself and "l2dir.bank3", but not "l2dirx";
    // "core_" matches "core_0".."core_N".
    if (name.compare(0, prefix.size(), prefix) != 0)
        return false;
    if (name.size() == prefix.size())
        return true;
    const char next = name[prefix.size()];
    return prefix.back() == '_' || prefix.back() == '.' ||
           next == '.' || next == '_';
}

} // namespace

double
StatsRun::sumOver(const std::string &group_prefix,
                  const std::string &stat) const
{
    // Stats are keyed by their fully-qualified name, so the short
    // name is looked up as "<group>.<stat>" per matching group.
    double sum = 0.0;
    for (const auto &[name, stats] : groups) {
        if (!groupMatches(name, group_prefix))
            continue;
        auto sit = stats.find(name + "." + stat);
        if (sit != stats.end())
            sum += sit->second.primary();
    }
    return sum;
}

double
StatsRun::maxOver(const std::string &group_prefix,
                  const std::string &stat) const
{
    double best = 0.0;
    for (const auto &[name, stats] : groups) {
        if (!groupMatches(name, group_prefix))
            continue;
        auto sit = stats.find(name + "." + stat);
        if (sit != stats.end() && sit->second.primary() > best)
            best = sit->second.primary();
    }
    return best;
}

std::size_t
StatsRun::countGroups(const std::string &group_prefix) const
{
    std::size_t n = 0;
    for (const auto &[name, stats] : groups) {
        if (groupMatches(name, group_prefix))
            ++n;
    }
    return n;
}

std::uint64_t
ProfileRun::PcRow::total() const
{
    std::uint64_t sum = 0;
    for (const auto &[bucket, n] : cycles)
        sum += n;
    return sum;
}

std::uint64_t
ProfileRun::PcRow::wasted() const
{
    std::uint64_t sum = 0;
    for (const auto &[bucket, n] : cycles) {
        if (bucket != "execute")
            sum += n;
    }
    return sum;
}

std::map<std::string, std::uint64_t>
ProfileRun::bucketTotals() const
{
    std::map<std::string, std::uint64_t> totals;
    for (const std::string &b : buckets)
        totals[b] = 0;
    for (const auto &[sym, row] : pcs) {
        for (const auto &[bucket, n] : row.cycles)
            totals[bucket] += n;
    }
    return totals;
}

bool
readFile(const std::string &path, std::string &out, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open '" + path + "' for reading";
        return false;
    }
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

namespace
{

/**
 * Version gate shared by both document families: absent or non-numeric
 * versions are refused, as is anything outside [oldest, expected] --
 * newer layouts may have moved fields this tool would misread, and
 * silently comparing drifted layouts defeats the tool.  Families whose
 * revisions are purely additive (stats-json gained "p999" in v2) pass
 * an @p oldest below @p expected so archived artifacts keep loading:
 * the generic field copy in loadStatValue simply sees fewer keys, and
 * the diff layer treats an absent percentile as 0.
 */
bool
checkSchemaVersion(const Json &doc, int expected, const char *family,
                   int &found, std::string &error, int oldest = 0)
{
    if (oldest <= 0)
        oldest = expected;
    if (!doc.isObject()) {
        error = std::string(family) + " document is not a JSON object";
        return false;
    }
    const Json &v = doc["schema_version"];
    if (!v.isNumber()) {
        error = std::string(family) +
                " document has no schema_version (predates version " +
                std::to_string(expected) + "?); refusing to compare";
        return false;
    }
    found = static_cast<int>(v.asI64());
    if (found < oldest || found > expected) {
        error = std::string(family) + " schema_version " +
                std::to_string(found) + " is outside this tool's [" +
                std::to_string(oldest) + ", " + std::to_string(expected) +
                "]; refusing to compare";
        return false;
    }
    return true;
}

StatValue
loadStatValue(const Json &j)
{
    StatValue v;
    v.kind = j["kind"].asString();
    for (const auto &[name, field] : j.object()) {
        if (field.isNumber())
            v.fields[name] = field.asDouble();
    }
    // Histogram buckets stay out of the diff; count them instead.
    if (v.kind == "histogram" && j["buckets"].isArray())
        v.fields["num_buckets"] =
            static_cast<double>(j["buckets"].array().size());
    return v;
}

} // namespace

bool
loadStatsRun(const std::string &text, const std::string &label,
             StatsRun &out, std::string &error)
{
    Json doc;
    if (!Json::parse(text, doc, error)) {
        error = "stats-json: " + error;
        return false;
    }
    if (!checkSchemaVersion(doc, statistics::stats_schema_version,
                            "stats-json", out.schema_version, error,
                            /*oldest=*/1))
        return false;

    out.label = label;
    const Json &mode = doc["provenance"]["sim_mode"];
    if (mode.isObject()) {
        out.dir_banks =
            static_cast<std::uint32_t>(mode["dir_banks"].asU64());
        if (out.dir_banks == 0)
            out.dir_banks = 1;
        out.topology = mode["topology"].asString();
    }

    if (!doc["groups"].isObject()) {
        error = "stats-json: missing top-level \"groups\" object";
        return false;
    }
    for (const auto &[gname, gstats] : doc["groups"].object()) {
        auto &dst = out.groups[gname];
        for (const auto &[sname, sval] : gstats.object())
            dst[sname] = loadStatValue(sval);
    }
    for (const auto &[sname, entry] : doc["schema"].object()) {
        out.schema[sname] = {entry["kind"].asString(),
                             entry["unit"].asString(),
                             entry["desc"].asString()};
    }
    return true;
}

bool
loadProfileRun(const std::string &text, ProfileRun &out,
               std::string &error)
{
    Json doc;
    if (!Json::parse(text, doc, error)) {
        error = "profile: " + error;
        return false;
    }
    if (!checkSchemaVersion(doc, prof::profile_schema_version,
                            "profile", out.schema_version, error))
        return false;

    for (const Json &b : doc["buckets"].array())
        out.buckets.push_back(b.asString());
    for (const Json &row : doc["pcs"].array()) {
        ProfileRun::PcRow pc;
        pc.pc = row["pc"].asU64();
        pc.execs = row["execs"].asU64();
        for (const auto &[bucket, n] : row["cycles"].object())
            pc.cycles[bucket] = n.asU64();
        out.pcs[row["sym"].asString()] = std::move(pc);
    }
    for (const Json &row : doc["lines"].array()) {
        ProfileRun::LineRow line;
        line.touches = row["touches"].asU64();
        line.invalidations = row["invalidations"].asU64();
        line.ping_pongs = row["ping_pongs"].asU64();
        line.cores_touched =
            static_cast<std::uint32_t>(row["cores_touched"].asU64());
        line.false_sharing = row["false_sharing"].asBool();
        out.lines[row["sym"].asString()] = line;
    }
    for (const Json &row : doc["rollbacks"].array()) {
        const std::string key = row["cause"].asString() + "|" +
                                row["victim"].asString() + "|" +
                                row["line"].asString();
        ProfileRun::RollbackRow &rb = out.rollbacks[key];
        rb.count += row["count"].asU64();
        rb.discarded_insts += row["discarded_insts"].asU64();
    }
    return true;
}

bool
loadSweepRows(const std::string &text, std::vector<Json> &out,
              std::string &error)
{
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        bool blank = true;
        for (char c : line) {
            if (c != ' ' && c != '\t' && c != '\r') {
                blank = false;
                break;
            }
        }
        if (blank)
            continue;
        Json row;
        std::string row_error;
        if (!Json::parse(line, row, row_error)) {
            error = "sweep-json line " + std::to_string(lineno) +
                    ": " + row_error;
            return false;
        }
        if (!row.isObject()) {
            error = "sweep-json line " + std::to_string(lineno) +
                    ": expected one JSON object per line";
            return false;
        }
        out.push_back(std::move(row));
    }
    return true;
}

} // namespace fenceless::analysis
