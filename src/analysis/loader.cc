#include "analysis/loader.hh"

#include <fstream>
#include <sstream>

#include "base/stats_json.hh"

namespace fenceless::analysis
{

double
StatValue::primary() const
{
    if (kind == "distribution")
        return field("total");
    return field("value");
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
loadProfile(const std::string &text, prof::Profile &out,
            std::string &error)
{
    Json doc;
    if (!Json::parse(text, doc, error)) {
        error = "profile: " + error;
        return false;
    }
    int version = 0;
    if (!checkSchemaVersion(doc, prof::profile_schema_version,
                            "profile", version, error))
        return false;

    // Rows carry their counts by bucket name, so a document from a
    // build with another taxonomy would drop or misfile cycles.
    const std::vector<Json> &buckets = doc["buckets"].array();
    bool same = buckets.size() == prof::num_buckets;
    for (std::size_t b = 0; same && b < prof::num_buckets; ++b) {
        same = buckets[b].asString() ==
               prof::cycleBucketName(static_cast<prof::CycleBucket>(b));
    }
    if (!same) {
        error = "profile: \"buckets\" differs from this tool's waste "
                "taxonomy; refusing to compare";
        return false;
    }

    for (const Json &row : doc["pcs"].array()) {
        prof::Profile::PcRow &pc = out.pcs[row["sym"].asString()];
        pc.pc = row["pc"].asU64();
        pc.execs = row["execs"].asU64();
        for (std::size_t b = 0; b < prof::num_buckets; ++b) {
            pc.cycles[b] = row["cycles"][prof::cycleBucketName(
                static_cast<prof::CycleBucket>(b))].asU64();
        }
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
