#include "base/stats_json.hh"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace fenceless::statistics
{

namespace
{

/** JSON has no NaN/Inf literals; clamp them to null. */
void
printJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
        os << static_cast<std::int64_t>(v);
    } else {
        std::ostringstream tmp;
        tmp.precision(12);
        tmp << v;
        os << tmp.str();
    }
}

/** First-match unit rules over the registry's naming conventions. */
struct UnitRule
{
    const char *needle; //!< substring of the short stat name
    const char *unit;
};

constexpr UnitRule unit_rules[] = {
    // Tick-valued timings and stall accounting.
    {"latency", "cycles"},
    {"_wait", "cycles"},
    {"_service", "cycles"},
    {"stall_", "cycles"},
    {"halt_tick", "cycles"},
    // Rates and sizes.
    {"ipc", "insts/cycle"},
    {"bytes", "bytes"},
    {"msgs", "messages"},
    {"instructions", "instructions"},
    {"insts", "instructions"},
    {"occupancy", "entries"},
    {"hops", "hops"},
};

} // namespace

const char *
statUnit(const Stat &stat)
{
    // Match on the short name so a group's name cannot accidentally
    // satisfy a rule.
    for (const UnitRule &rule : unit_rules) {
        if (stat.name().find(rule.needle) != std::string::npos)
            return rule.unit;
    }
    return "count";
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += "\"";
    return out;
}

void
printJson(std::ostream &os, const Stat &stat)
{
    if (const auto *d = dynamic_cast<const Distribution *>(&stat)) {
        os << "{\"kind\": \"distribution\", \"n\": " << d->samples()
           << ", \"mean\": ";
        printJsonNumber(os, d->mean());
        os << ", \"min\": ";
        printJsonNumber(os, d->minValue());
        os << ", \"max\": ";
        printJsonNumber(os, d->maxValue());
        os << ", \"stdev\": ";
        printJsonNumber(os, d->stdev());
        os << ", \"p50\": ";
        printJsonNumber(os, d->percentile(0.50));
        os << ", \"p95\": ";
        printJsonNumber(os, d->percentile(0.95));
        os << ", \"p99\": ";
        printJsonNumber(os, d->percentile(0.99));
        os << ", \"p999\": ";
        printJsonNumber(os, d->percentile(0.999));
        os << ", \"total\": ";
        printJsonNumber(os, d->total());
        os << "}";
        return;
    }
    const char *kind =
        dynamic_cast<const Formula *>(&stat) ? "formula" : "scalar";
    os << "{\"kind\": \"" << kind << "\", \"value\": ";
    printJsonNumber(os, stat.value());
    os << "}";
}

void
printJson(std::ostream &os, const StatGroup &group)
{
    os << "{";
    bool first = true;
    for (const auto &s : group.stats()) {
        os << (first ? "" : ", ") << "\n      "
           << jsonQuote(group.qualifiedName(*s)) << ": ";
        printJson(os, *s);
        first = false;
    }
    os << "\n    }";
}

void
printGroupsJson(std::ostream &os, const StatRegistry &registry)
{
    os << "{";
    bool first = true;
    for (const auto &g : registry.groups()) {
        os << (first ? "" : ",") << "\n    " << jsonQuote(g->name())
           << ": ";
        printJson(os, *g);
        first = false;
    }
    os << "\n  }";
}

void
printSchemaJson(std::ostream &os, const StatRegistry &registry)
{
    os << "{";
    bool first = true;
    for (const auto &g : registry.groups()) {
        for (const auto &s : g->stats()) {
            const char *kind =
                dynamic_cast<const Distribution *>(s.get()) ? "distribution"
                : dynamic_cast<const Formula *>(s.get())    ? "formula"
                                                            : "scalar";
            os << (first ? "" : ",") << "\n    "
               << jsonQuote(g->qualifiedName(*s))
               << ": {\"kind\": \"" << kind << "\", \"unit\": \""
               << statUnit(*s) << "\", \"desc\": "
               << jsonQuote(s->desc()) << "}";
            first = false;
        }
    }
    os << "\n  }";
}

void
printJson(std::ostream &os, const StatRegistry &registry)
{
    os << "{\n  \"schema_version\": " << stats_schema_version
       << ",\n  \"groups\": ";
    printGroupsJson(os, registry);
    os << ",\n  \"schema\": ";
    printSchemaJson(os, registry);
    os << "\n}\n";
}

} // namespace fenceless::statistics
