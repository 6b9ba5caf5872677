#include "analysis/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace fenceless::analysis
{

// ---------------------------------------------------------------------
// Formatting helpers
// ---------------------------------------------------------------------

std::string
fmtCount(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
fmtDelta(std::int64_t v)
{
    if (v > 0)
        return "+" + std::to_string(v);
    return std::to_string(v);
}

std::string
fmtF3(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

std::string
fmtPct(double base, double cand)
{
    if (base == 0.0)
        return cand == 0.0 ? "0.0%" : "n/a";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.1f%%",
                  (cand - base) / std::fabs(base) * 100.0);
    return buf;
}

namespace
{

/** A float that is usually an integer count: drop the ".000". */
std::string
fmtNum(double v)
{
    if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    return fmtF3(v);
}

// ---------------------------------------------------------------------
// Document model: sections are built once and rendered by both the
// markdown and the HTML writer, so the two formats cannot drift.
// ---------------------------------------------------------------------

struct Table
{
    std::vector<std::string> headers;
    std::vector<char> align; //!< 'l' or 'r' per column
    std::vector<std::vector<std::string>> rows;
};

struct Block
{
    enum class Kind
    {
        Heading,
        Para,
        Bullets,
        TableK,
        Flame,
    };

    Kind kind = Kind::Para;
    int level = 2;    //!< heading level
    std::string text; //!< heading / paragraph text
    std::vector<std::string> items;
    Table table;
    std::vector<FoldedDiffRow> flame;
    std::uint64_t flame_max = 0;
};

struct Doc
{
    std::string title;
    std::vector<Block> blocks;
};

Block
heading(int level, std::string text)
{
    Block b;
    b.kind = Block::Kind::Heading;
    b.level = level;
    b.text = std::move(text);
    return b;
}

Block
para(std::string text)
{
    Block b;
    b.kind = Block::Kind::Para;
    b.text = std::move(text);
    return b;
}

// --- section builders -------------------------------------------------

void
buildRunsSection(const ReportModel &model, Doc &doc)
{
    doc.blocks.push_back(heading(2, "Runs"));
    Block b;
    b.kind = Block::Kind::TableK;
    b.table.headers = {"run",       "topology", "cores",
                       "dir banks", "cycles",   "insts",
                       "throughput", "rollbacks"};
    b.table.align = {'l', 'l', 'r', 'r', 'r', 'r', 'r', 'r'};
    for (const RunSummary &s : model.summaries) {
        b.table.rows.push_back(
            {s.label, s.topology.empty() ? "-" : s.topology,
             fmtCount(s.cores), fmtCount(s.dir_banks), fmtNum(s.cycles),
             fmtNum(s.insts), fmtF3(s.throughput), fmtNum(s.rollbacks)});
    }
    doc.blocks.push_back(std::move(b));
}

void
buildWasteSection(const ReportModel &model, Doc &doc)
{
    const std::string &bl = model.baseline().label;
    const std::string &cl = model.candidate().label;
    doc.blocks.push_back(heading(2, "Waste attribution"));
    doc.blocks.push_back(
        para("Whole-run cycles per waste bucket, summed over every "
             "profiled instruction; integer counts identical to each "
             "run's own `--waste-report` totals."));

    Block b;
    b.kind = Block::Kind::TableK;
    b.table.headers = {"bucket", bl + " (cycles)", cl + " (cycles)",
                       "delta", "rel"};
    b.table.align = {'l', 'r', 'r', 'r', 'r'};
    std::uint64_t base_wasted = 0, cand_wasted = 0;
    for (const BucketDelta &d : model.profile_diff.buckets) {
        b.table.rows.push_back(
            {d.bucket, fmtCount(d.base), fmtCount(d.cand),
             fmtDelta(d.delta()), fmtPct(double(d.base), double(d.cand))});
        if (d.bucket != "execute") {
            base_wasted += d.base;
            cand_wasted += d.cand;
        }
    }
    b.table.rows.push_back(
        {"total wasted", fmtCount(base_wasted), fmtCount(cand_wasted),
         fmtDelta(static_cast<std::int64_t>(cand_wasted) -
                  static_cast<std::int64_t>(base_wasted)),
         fmtPct(double(base_wasted), double(cand_wasted))});
    doc.blocks.push_back(std::move(b));

    const auto sym_table = [&](const char *title,
                               const std::vector<PcDelta> &rows) {
        doc.blocks.push_back(heading(3, title));
        if (rows.empty()) {
            doc.blocks.push_back(para("None."));
            return;
        }
        Block t;
        t.kind = Block::Kind::TableK;
        t.table.headers = {"symbol", bl + " wasted", cl + " wasted",
                           "delta", "note"};
        t.table.align = {'l', 'r', 'r', 'r', 'l'};
        for (const PcDelta &d : rows) {
            const char *note = d.only_cand ? "new in candidate"
                               : d.only_base ? "gone in candidate"
                                             : "-";
            t.table.rows.push_back(
                {d.sym, fmtCount(d.base_wasted), fmtCount(d.cand_wasted),
                 fmtDelta(d.delta()), note});
        }
        doc.blocks.push_back(std::move(t));
    };
    sym_table("Top regressed symbols", model.profile_diff.regressed);
    sym_table("Top improved symbols", model.profile_diff.improved);
}

void
buildStatsSection(const ReportModel &model, Doc &doc)
{
    doc.blocks.push_back(heading(2, "Stat movements"));
    const auto table = [&](const std::vector<StatDelta> &rows) {
        Block t;
        t.kind = Block::Kind::TableK;
        t.table.headers = {"stat",
                           "field",
                           "unit",
                           model.baseline().label,
                           model.candidate().label,
                           "rel"};
        t.table.align = {'l', 'l', 'l', 'r', 'r', 'r'};
        for (const StatDelta &d : rows) {
            t.table.rows.push_back(
                {d.stat, d.field, d.unit.empty() ? "-" : d.unit,
                 fmtNum(d.base), fmtNum(d.cand), fmtPct(d.base, d.cand)});
        }
        doc.blocks.push_back(std::move(t));
    };
    if (model.stats_diff.top.empty()) {
        doc.blocks.push_back(
            para("No scalar stat moved between the runs."));
    } else {
        table(model.stats_diff.top);
    }

    doc.blocks.push_back(heading(3, "Percentile movements"));
    if (model.stats_diff.percentiles.empty()) {
        doc.blocks.push_back(
            para("No distribution percentile moved."));
    } else {
        table(model.stats_diff.percentiles);
    }

    doc.blocks.push_back(heading(3, "Group coverage"));
    const GroupPresence &p = model.stats_diff.presence;
    if (p.added.empty() && p.removed.empty()) {
        doc.blocks.push_back(
            para("Both runs expose the same stat groups."));
        return;
    }
    Block b;
    b.kind = Block::Kind::Bullets;
    for (const std::string &g : p.added)
        b.items.push_back("Added in " + model.candidate().label +
                          ": `" + g + "`");
    for (const std::string &g : p.removed)
        b.items.push_back("Removed from " + model.candidate().label +
                          ": `" + g + "`");
    doc.blocks.push_back(std::move(b));
}

void
buildScalingSection(const ReportModel &model, Doc &doc)
{
    const ScalingTable &sc = model.scaling;
    doc.blocks.push_back(heading(2, "Scaling along " + sc.axis));

    Block b;
    b.kind = Block::Kind::TableK;
    b.table.headers = {sc.axis,      "run",
                       "throughput", "speedup",
                       "efficiency", "core imbalance"};
    b.table.align = {'r', 'l', 'r', 'r', 'r', 'r'};
    for (const ScalingRow &row : sc.rows) {
        b.table.rows.push_back(
            {row.axis_label, row.summary.label,
             fmtF3(row.summary.throughput), fmtF3(row.speedup),
             fmtF3(row.efficiency), fmtF3(row.summary.core_imbalance)});
    }
    doc.blocks.push_back(std::move(b));

    doc.blocks.push_back(heading(3, "NoC traffic"));
    Block t;
    t.kind = Block::Kind::TableK;
    t.table.headers = {sc.axis,      "msgs",
                       "hops",       "links used",
                       "hot-link msgs", "hot-link busy"};
    t.table.align = {'r', 'r', 'r', 'r', 'r', 'r'};
    for (const ScalingRow &row : sc.rows) {
        t.table.rows.push_back(
            {row.axis_label, fmtNum(row.summary.msgs),
             fmtNum(row.summary.hops), fmtNum(row.summary.links_used),
             fmtNum(row.summary.hot_link_msgs),
             fmtNum(row.summary.hot_link_busy)});
    }
    doc.blocks.push_back(std::move(t));
}

void
buildSweepSection(const ReportModel &model, Doc &doc)
{
    doc.blocks.push_back(heading(2, "Sweep points"));
    doc.blocks.push_back(
        para("Rows ingested from bench_scaling `--sweep-json`."));
    std::set<std::string> keys;
    for (const Json &row : model.sweep_rows) {
        for (const auto &[key, value] : row.object())
            keys.insert(key);
    }
    Block b;
    b.kind = Block::Kind::TableK;
    for (const std::string &k : keys) {
        b.table.headers.push_back(k);
        b.table.align.push_back('r');
    }
    for (const Json &row : model.sweep_rows) {
        std::vector<std::string> texts;
        for (const std::string &k : keys) {
            const Json &v = row[k];
            switch (v.kind()) {
              case Json::Kind::Number:
                texts.push_back(fmtNum(v.asDouble()));
                break;
              case Json::Kind::String:
                texts.push_back(v.asString());
                break;
              case Json::Kind::Bool:
                texts.push_back(v.asBool() ? "true" : "false");
                break;
              default:
                texts.push_back("-");
                break;
            }
        }
        b.table.rows.push_back(std::move(texts));
    }
    doc.blocks.push_back(std::move(b));
}

void
buildFlameSection(const ReportModel &model, Doc &doc)
{
    doc.blocks.push_back(heading(2, "Flamegraph diff"));
    doc.blocks.push_back(
        para("Folded stacks (`symbol;bucket`) with cycles in each "
             "run; the full diff is also available via "
             "`--folded-diff` for flamegraph.pl / inferno."));
    std::vector<FoldedDiffRow> rows = model.profile_diff.folded;
    std::sort(rows.begin(), rows.end(),
              [](const FoldedDiffRow &a, const FoldedDiffRow &b) {
                  const std::uint64_t da = a.cand > a.base
                                               ? a.cand - a.base
                                               : a.base - a.cand;
                  const std::uint64_t db = b.cand > b.base
                                               ? b.cand - b.base
                                               : b.base - b.cand;
                  if (da != db)
                      return da > db;
                  return a.stack < b.stack;
              });
    if (rows.size() > model.top_n * 2)
        rows.resize(model.top_n * 2);
    Block b;
    b.kind = Block::Kind::Flame;
    for (const FoldedDiffRow &r : rows)
        b.flame_max = std::max({b.flame_max, r.base, r.cand});
    b.flame = std::move(rows);
    doc.blocks.push_back(std::move(b));
}

Doc
buildDoc(const ReportModel &model)
{
    Doc doc;
    doc.title = "fenceless cross-run report";
    buildRunsSection(model, doc);
    if (model.has_profile_diff)
        buildWasteSection(model, doc);
    if (model.has_diff)
        buildStatsSection(model, doc);
    if (!model.axis.empty() && !model.scaling.rows.empty())
        buildScalingSection(model, doc);
    if (!model.sweep_rows.empty())
        buildSweepSection(model, doc);
    if (model.has_profile_diff)
        buildFlameSection(model, doc);
    return doc;
}

// ---------------------------------------------------------------------
// Markdown renderer
// ---------------------------------------------------------------------

void
renderMarkdownTable(std::ostream &os, const Table &t)
{
    os << "|";
    for (const std::string &h : t.headers)
        os << " " << h << " |";
    os << "\n|";
    for (std::size_t c = 0; c < t.headers.size(); ++c) {
        const char a = c < t.align.size() ? t.align[c] : 'l';
        os << (a == 'r' ? " ---: |" : " --- |");
    }
    os << "\n";
    for (const auto &row : t.rows) {
        os << "|";
        for (const std::string &cell : row)
            os << " " << cell << " |";
        os << "\n";
    }
}

void
renderMarkdown(std::ostream &os, const Doc &doc)
{
    os << "# " << doc.title << "\n";
    for (const Block &b : doc.blocks) {
        switch (b.kind) {
          case Block::Kind::Heading:
            os << "\n";
            for (int i = 0; i < b.level; ++i)
                os << "#";
            os << " " << b.text << "\n";
            break;
          case Block::Kind::Para:
            os << "\n" << b.text << "\n";
            break;
          case Block::Kind::Bullets:
            os << "\n";
            for (const std::string &item : b.items)
                os << "- " << item << "\n";
            break;
          case Block::Kind::TableK:
            os << "\n";
            renderMarkdownTable(os, b.table);
            break;
          case Block::Kind::Flame:
            os << "\n```\n";
            for (const FoldedDiffRow &r : b.flame) {
                os << r.stack << " " << r.base << " " << r.cand
                   << " (" << fmtDelta(
                          static_cast<std::int64_t>(r.cand) -
                          static_cast<std::int64_t>(r.base))
                   << ")\n";
            }
            os << "```\n";
            break;
        }
    }
}

// ---------------------------------------------------------------------
// HTML renderer
// ---------------------------------------------------------------------

void
htmlEscape(std::ostream &os, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '&': os << "&amp;"; break;
          case '<': os << "&lt;"; break;
          case '>': os << "&gt;"; break;
          case '"': os << "&quot;"; break;
          default: os << c; break;
        }
    }
}

const char *html_css =
    "body{font-family:ui-monospace,monospace;margin:2em;"
    "color:#1a1a2e;max-width:72em}\n"
    "h1{border-bottom:2px solid #444}\n"
    "table{border-collapse:collapse;margin:0.5em 0}\n"
    "th,td{border:1px solid #bbb;padding:2px 8px}\n"
    "th{background:#eee}\n"
    "td.r{text-align:right}\n"
    ".flame{margin:0.5em 0}\n"
    ".flame .row{display:flex;align-items:center;margin:1px 0;"
    "font-size:12px}\n"
    ".flame .sym{width:28em;overflow:hidden;text-overflow:ellipsis;"
    "white-space:nowrap}\n"
    ".flame .bars{flex:1}\n"
    ".flame .bar{height:7px;margin:1px 0}\n"
    ".flame .base{background:#6699cc}\n"
    ".flame .cand{background:#cc6666}\n";

void
renderHtmlTable(std::ostream &os, const Table &t)
{
    os << "<table>\n<tr>";
    for (const std::string &h : t.headers) {
        os << "<th>";
        htmlEscape(os, h);
        os << "</th>";
    }
    os << "</tr>\n";
    for (const auto &row : t.rows) {
        os << "<tr>";
        for (std::size_t c = 0; c < row.size(); ++c) {
            const char a = c < t.align.size() ? t.align[c] : 'l';
            os << "<td" << (a == 'r' ? " class=\"r\"" : "") << ">";
            htmlEscape(os, row[c]);
            os << "</td>";
        }
        os << "</tr>\n";
    }
    os << "</table>\n";
}

void
renderHtml(std::ostream &os, const Doc &doc)
{
    os << "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
       << "<title>";
    htmlEscape(os, doc.title);
    os << "</title>\n<style>\n" << html_css << "</style>\n</head>\n"
       << "<body>\n<h1>";
    htmlEscape(os, doc.title);
    os << "</h1>\n";
    for (const Block &b : doc.blocks) {
        switch (b.kind) {
          case Block::Kind::Heading:
            os << "<h" << b.level << ">";
            htmlEscape(os, b.text);
            os << "</h" << b.level << ">\n";
            break;
          case Block::Kind::Para:
            os << "<p>";
            htmlEscape(os, b.text);
            os << "</p>\n";
            break;
          case Block::Kind::Bullets:
            os << "<ul>\n";
            for (const std::string &item : b.items) {
                os << "<li>";
                htmlEscape(os, item);
                os << "</li>\n";
            }
            os << "</ul>\n";
            break;
          case Block::Kind::TableK:
            renderHtmlTable(os, b.table);
            break;
          case Block::Kind::Flame: {
            os << "<div class=\"flame\">\n"
               << "<div class=\"row\"><span class=\"sym\">"
                  "baseline (blue) vs candidate (red), cycles"
                  "</span></div>\n";
            const double max =
                b.flame_max > 0 ? double(b.flame_max) : 1.0;
            for (const FoldedDiffRow &r : b.flame) {
                const int base_pct = static_cast<int>(
                    std::lround(double(r.base) / max * 100.0));
                const int cand_pct = static_cast<int>(
                    std::lround(double(r.cand) / max * 100.0));
                os << "<div class=\"row\"><span class=\"sym\" "
                      "title=\"";
                htmlEscape(os, r.stack);
                os << "\">";
                htmlEscape(os, r.stack);
                os << "</span><span class=\"bars\">"
                   << "<div class=\"bar base\" style=\"width:"
                   << base_pct << "%\"></div>"
                   << "<div class=\"bar cand\" style=\"width:"
                   << cand_pct << "%\"></div>"
                   << "</span><span> " << r.base << " / " << r.cand
                   << "</span></div>\n";
            }
            os << "</div>\n";
            break;
          }
        }
    }
    os << "</body>\n</html>\n";
}

} // namespace

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

ReportModel
buildReport(std::vector<RunInput> runs, std::vector<Json> sweep_rows,
            const std::string &axis, std::size_t top_n)
{
    ReportModel model;
    model.runs = std::move(runs);
    model.sweep_rows = std::move(sweep_rows);
    model.axis = axis;
    model.top_n = top_n;
    for (const RunInput &run : model.runs)
        model.summaries.push_back(summarize(run));
    model.has_diff = model.runs.size() >= 2;
    if (model.has_diff) {
        model.stats_diff = diffStats(model.baseline().stats,
                                     model.candidate().stats, top_n);
        if (model.baseline().has_profile &&
            model.candidate().has_profile) {
            model.has_profile_diff = true;
            model.profile_diff =
                diffProfiles(model.baseline().profile,
                             model.candidate().profile, top_n);
        }
    }
    if (!axis.empty())
        model.scaling = buildScaling(model.runs, axis);
    return model;
}

void
writeMarkdown(std::ostream &os, const ReportModel &model)
{
    renderMarkdown(os, buildDoc(model));
}

void
writeHtml(std::ostream &os, const ReportModel &model)
{
    renderHtml(os, buildDoc(model));
}

void
writeFoldedDiff(std::ostream &os, const ReportModel &model)
{
    for (const FoldedDiffRow &r : model.profile_diff.folded)
        os << r.stack << " " << r.base << " " << r.cand << "\n";
}

void
writeTriage(std::ostream &os, const ReportModel &model)
{
    if (model.runs.empty())
        return;
    os << "triage: baseline=" << model.baseline().label
       << " candidate=" << model.candidate().label << "\n";
    if (model.has_profile_diff) {
        std::uint64_t base_wasted = 0, cand_wasted = 0;
        for (const BucketDelta &d : model.profile_diff.buckets) {
            os << "triage: waste " << d.bucket << " " << d.base
               << " -> " << d.cand << " (" << fmtDelta(d.delta())
               << ")\n";
            if (d.bucket != "execute") {
                base_wasted += d.base;
                cand_wasted += d.cand;
            }
        }
        os << "triage: waste total_wasted " << base_wasted << " -> "
           << cand_wasted << " ("
           << fmtDelta(static_cast<std::int64_t>(cand_wasted) -
                       static_cast<std::int64_t>(base_wasted))
           << ")\n";
        for (std::size_t i = 0;
             i < model.profile_diff.regressed.size() && i < 3; ++i) {
            const PcDelta &d = model.profile_diff.regressed[i];
            os << "triage: regressed-symbol " << d.sym << " "
               << fmtDelta(d.delta()) << " wasted cycles\n";
        }
    }
    if (model.has_diff) {
        const RunSummary &b = model.summaries.front();
        const RunSummary &c = model.summaries.back();
        os << "triage: hot-link msgs " << fmtNum(b.hot_link_msgs)
           << " -> " << fmtNum(c.hot_link_msgs) << " ("
           << fmtPct(b.hot_link_msgs, c.hot_link_msgs)
           << "), busy " << fmtNum(b.hot_link_busy) << " -> "
           << fmtNum(c.hot_link_busy) << ", links used "
           << fmtNum(b.links_used) << " -> " << fmtNum(c.links_used)
           << "\n";
        for (std::size_t i = 0;
             i < model.stats_diff.top.size() && i < 5; ++i) {
            const StatDelta &d = model.stats_diff.top[i];
            os << "triage: stat " << d.stat << " " << fmtNum(d.base)
               << " -> " << fmtNum(d.cand) << " ("
               << fmtPct(d.base, d.cand) << ")\n";
        }
    }
}

} // namespace fenceless::analysis
