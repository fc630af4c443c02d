#include "obs/report.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

namespace sadapt::obs {

namespace {

/** Fixed short decimal for report tables (deterministic). */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** Shortest round-trip decimal for the JSON report (byte-stable). */
std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) {
        for (int prec = 1; prec <= 16; ++prec) {
            char s[64];
            std::snprintf(s, sizeof(s), "%.*g", prec, v);
            std::sscanf(s, "%lf", &back);
            if (back == v)
                return s;
        }
    }
    return buf;
}

std::string
fieldText(const FieldValue &v)
{
    if (std::holds_alternative<std::int64_t>(v))
        return std::to_string(std::get<std::int64_t>(v));
    if (std::holds_alternative<double>(v))
        return num(std::get<double>(v));
    if (std::holds_alternative<bool>(v))
        return std::get<bool>(v) ? "true" : "false";
    return std::get<std::string>(v);
}

std::string
fieldOr(const JournalEvent &ev, std::string_view key,
        const std::string &fallback)
{
    const FieldValue *v = ev.field(key);
    return v != nullptr ? fieldText(*v) : fallback;
}

} // namespace

void
renderTimeline(const std::vector<JournalEvent> &events,
               std::ostream &out)
{
    out << "== decision timeline ==\n";
    bool any = false;
    for (const JournalEvent &ev : events) {
        if (ev.type == "run")
            continue;
        any = true;
        if (ev.type == "epoch") {
            out << "epoch " << ev.epoch << " t=" << num(ev.simTime)
                << "s cfg=" << fieldOr(ev, "cfg", "?")
                << " seconds=" << fieldOr(ev, "seconds", "?")
                << " metric=" << fieldOr(ev, "metric", "?") << '\n';
        } else if (ev.type == "prediction") {
            out << "  prediction:";
            for (const auto &[k, v] : ev.fields) {
                if (k != "cfg")
                    out << ' ' << k << '=' << fieldText(v);
            }
            out << '\n';
        } else if (ev.type == "policy") {
            out << "  policy: " << fieldOr(ev, "param", "?") << ' '
                << fieldOr(ev, "from", "?") << "->"
                << fieldOr(ev, "to", "?") << ' '
                << (ev.boolField("accepted").value_or(false)
                        ? "accepted"
                        : "vetoed")
                << " (cost " << fieldOr(ev, "cost_s", "?") << "s"
                << (ev.boolField("flush").value_or(false) ? ", flush"
                                                          : "")
                << ")\n";
        } else if (ev.type == "reconfig") {
            out << "  reconfig: " << fieldOr(ev, "from", "?")
                << " -> " << fieldOr(ev, "to", "?") << " (cost "
                << fieldOr(ev, "cost_s", "?") << "s, "
                << fieldOr(ev, "cost_j", "?") << "J)\n";
        } else if (ev.type == "guard") {
            out << "  guard: " << fieldOr(ev, "verdict", "?")
                << " (flagged " << fieldOr(ev, "flagged", "0")
                << ")\n";
        } else if (ev.type == "watchdog") {
            out << "  watchdog: " << fieldOr(ev, "from", "?")
                << " -> " << fieldOr(ev, "to", "?") << '\n';
        } else if (ev.type == "fault") {
            out << "  fault: " << fieldOr(ev, "kind", "?") << ' '
                << fieldOr(ev, "detail", "") << '\n';
        } else {
            out << "  " << ev.type << " (" << ev.path << ")\n";
        }
    }
    if (!any)
        out << "(no events)\n";
}

void
renderReconfigSummary(const std::vector<JournalEvent> &events,
                      std::ostream &out)
{
    struct ParamTally
    {
        std::uint64_t proposed = 0;
        std::uint64_t accepted = 0;
        std::uint64_t vetoed = 0;
    };
    std::map<std::string, ParamTally> per_param;
    std::uint64_t applied = 0;
    double applied_cost_s = 0.0, applied_cost_j = 0.0;
    for (const JournalEvent &ev : events) {
        if (ev.type == "policy") {
            ParamTally &t = per_param[fieldOr(ev, "param", "?")];
            ++t.proposed;
            if (ev.boolField("accepted").value_or(false))
                ++t.accepted;
            else
                ++t.vetoed;
        } else if (ev.type == "reconfig") {
            ++applied;
            applied_cost_s += ev.numField("cost_s").value_or(0.0);
            applied_cost_j += ev.numField("cost_j").value_or(0.0);
        }
    }

    out << "== reconfiguration summary ==\n";
    char line[128];
    std::snprintf(line, sizeof(line), "%-12s %9s %9s %9s\n", "param",
                  "proposed", "accepted", "vetoed");
    out << line;
    for (const auto &[param, t] : per_param) {
        std::snprintf(line, sizeof(line), "%-12s %9llu %9llu %9llu\n",
                      param.c_str(),
                      static_cast<unsigned long long>(t.proposed),
                      static_cast<unsigned long long>(t.accepted),
                      static_cast<unsigned long long>(t.vetoed));
        out << line;
    }
    if (per_param.empty())
        out << "(no policy decisions)\n";
    out << "applied reconfigurations: " << applied << " (cost "
        << num(applied_cost_s) << "s, " << num(applied_cost_j)
        << "J)\n";
}

void
renderMetricRollups(const std::vector<MetricSample> &metrics,
                    std::ostream &out)
{
    out << "== metrics ==\n";
    if (metrics.empty()) {
        out << "(no metrics)\n";
        return;
    }
    // Group by top-level path component; samples arrive name-sorted
    // from readMetricsText, so groups are contiguous.
    std::vector<MetricSample> sorted = metrics;
    std::sort(sorted.begin(), sorted.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
    std::string group;
    for (const MetricSample &m : sorted) {
        const std::size_t slash = m.name.find('/');
        const std::string g = slash == std::string::npos
            ? std::string("(root)")
            : m.name.substr(0, slash);
        if (g != group) {
            group = g;
            out << "[" << group << "]\n";
        }
        out << "  " << m.name << " = ";
        switch (m.kind) {
          case MetricKind::Counter:
            out << m.counterValue;
            break;
          case MetricKind::Gauge:
            out << num(m.gaugeValue);
            break;
          case MetricKind::Histogram: {
            out << "count " << m.histCount << " sum " << m.histSum;
            if (m.histCount > 0)
                out << " mean "
                    << num(static_cast<double>(m.histSum) /
                           static_cast<double>(m.histCount));
            break;
          }
        }
        out << '\n';
    }
}

bool
renderStoreSection(const std::vector<JournalEvent> &events,
                   const std::vector<MetricSample> &metrics,
                   std::ostream &out)
{
    // Prefer the journal's cumulative store events (the CLI journals
    // them); fall back to store/ metric samples (benchmarks export
    // metrics only, to keep their journals store-independent).
    const JournalEvent *open_ev = nullptr;
    const JournalEvent *last_ev = nullptr;
    for (const JournalEvent &ev : events) {
        if (ev.type != "store")
            continue;
        last_ev = &ev;
        const FieldValue *op = ev.field("op");
        if (op != nullptr &&
            std::holds_alternative<std::string>(*op) &&
            std::get<std::string>(*op) == "open")
            open_ev = &ev;
    }

    std::map<std::string, const MetricSample *> store_metrics;
    for (const MetricSample &m : metrics) {
        if (m.name.rfind("store/", 0) == 0)
            store_metrics[m.name] = &m;
    }

    if (last_ev == nullptr && store_metrics.empty())
        return false;

    out << "== epoch store ==\n";
    if (last_ev != nullptr) {
        if (open_ev != nullptr) {
            out << "file: " << fieldOr(*open_ev, "file", "?") << " ("
                << fieldOr(*open_ev, "disk_results", "0")
                << " results / "
                << fieldOr(*open_ev, "disk_records", "0")
                << " records at open)\n";
            const auto recovered = [&](const char *key) {
                const FieldValue *v = open_ev->field(key);
                return v != nullptr &&
                       std::holds_alternative<std::int64_t>(*v) &&
                       std::get<std::int64_t>(*v) > 0;
            };
            if (recovered("stale_records") ||
                recovered("corrupt_records") ||
                recovered("torn_tail_bytes")) {
                out << "recovered: "
                    << fieldOr(*open_ev, "stale_records", "0")
                    << " stale, "
                    << fieldOr(*open_ev, "corrupt_records", "0")
                    << " corrupt record(s), "
                    << fieldOr(*open_ev, "torn_tail_bytes", "0")
                    << " torn tail byte(s)\n";
            }
        }
        if (last_ev != open_ev) {
            out << "traffic: " << fieldOr(*last_ev, "hits", "0")
                << " hits, " << fieldOr(*last_ev, "misses", "0")
                << " misses, "
                << fieldOr(*last_ev, "put_records", "0")
                << " record(s) written (now "
                << fieldOr(*last_ev, "disk_results", "0")
                << " results / "
                << fieldOr(*last_ev, "disk_records", "0")
                << " records on disk)\n";
        }
        return true;
    }

    const auto counter = [&](const char *name) -> std::uint64_t {
        const auto it = store_metrics.find(name);
        if (it == store_metrics.end())
            return 0;
        if (it->second->kind == MetricKind::Gauge)
            return static_cast<std::uint64_t>(
                it->second->gaugeValue);
        return it->second->counterValue;
    };
    out << "traffic: " << counter("store/hits") << " hits, "
        << counter("store/misses") << " misses, "
        << counter("store/put_records") << " record(s) written, "
        << counter("store/evictions") << " eviction(s), "
        << counter("store/served_cells") << " epoch cell(s) served\n";
    out << "on disk: " << counter("store/disk_results")
        << " results / " << counter("store/disk_records")
        << " records";
    if (counter("store/corrupt_records") > 0 ||
        counter("store/stale_records") > 0) {
        out << " (" << counter("store/corrupt_records")
            << " corrupt, " << counter("store/stale_records")
            << " stale skipped)";
    }
    out << '\n';
    return true;
}

bool
renderProfileSection(const std::vector<MetricSample> &metrics,
                     std::ostream &out)
{
    std::map<std::string, const MetricSample *> prof;
    for (const MetricSample &m : metrics) {
        if (m.name.rfind("profile/", 0) == 0)
            prof[m.name] = &m;
    }
    if (prof.empty())
        return false;

    const auto counterOf = [&](const std::string &name) {
        const auto it = prof.find(name);
        return it == prof.end() ? std::uint64_t{0}
                                : it->second->counterValue;
    };
    const std::uint64_t total = counterOf("profile/total_ops");
    const auto share = [&](std::uint64_t v) {
        return total == 0
            ? std::string("-")
            : num(100.0 * static_cast<double>(v) /
                  static_cast<double>(total)) +
                "%";
    };

    out << "== replay profile ==\n";
    out << "total ops: " << total << '\n';

    // One table per attribution axis. Kind names are flat
    // ("profile/op/<kind>"); component and phase tallies end in
    // "/ops" ("profile/component/<c>/ops"), their siblings are
    // rendered as detail lines below.
    const auto table = [&](const char *title, const std::string &prefix,
                           const std::string &suffix) {
        bool any = false;
        for (const auto &[name, m] : prof) {
            if (name.rfind(prefix, 0) != 0)
                continue;
            std::string label = name.substr(prefix.size());
            if (suffix.empty()) {
                if (label.find('/') != std::string::npos)
                    continue;
            } else {
                if (label.size() <= suffix.size() ||
                    label.compare(label.size() - suffix.size(),
                                  suffix.size(), suffix) != 0)
                    continue;
                label.resize(label.size() - suffix.size());
            }
            if (!any) {
                out << title << ":\n";
                any = true;
            }
            char line[128];
            std::snprintf(line, sizeof(line), "  %-16s %14llu  %s\n",
                          label.c_str(),
                          static_cast<unsigned long long>(
                              m->counterValue),
                          share(m->counterValue).c_str());
            out << line;
        }
    };
    table("ops by kind", "profile/op/", "");
    table("ops by component", "profile/component/", "/ops");
    table("ops by phase", "profile/phase/", "/ops");

    bool any_detail = false;
    for (const auto &[name, m] : prof) {
        if (name.rfind("profile/component/", 0) != 0 ||
            name.size() < 4 ||
            name.compare(name.size() - 4, 4, "/ops") == 0)
            continue;
        if (!any_detail) {
            out << "component detail:\n";
            any_detail = true;
        }
        out << "  " << name.substr(sizeof("profile/component/") - 1)
            << " = " << m->counterValue << '\n';
    }

    // Attribution coverage: every executed op lands in exactly one
    // op-kind counter, so kinds summing to total_ops means 100%.
    std::uint64_t attributed = 0;
    for (const auto &[name, m] : prof) {
        if (name.rfind("profile/op/", 0) == 0 &&
            name.find('/', sizeof("profile/op/") - 1) ==
                std::string::npos)
            attributed += m->counterValue;
    }
    out << "attributed: " << attributed << " of " << total << " ops";
    if (total != 0)
        out << " (" << share(attributed) << ')';
    out << '\n';

    const auto hist = prof.find("profile/epoch_ops");
    if (hist != prof.end() &&
        hist->second->kind == MetricKind::Histogram &&
        hist->second->histCount > 0) {
        const MetricSample &h = *hist->second;
        out << "epochs: " << h.histCount << " (mean ops "
            << num(static_cast<double>(h.histSum) /
                   static_cast<double>(h.histCount));
        if (h.histHasQuantiles)
            out << ", p50 " << num(h.histP50) << ", p90 "
                << num(h.histP90) << ", p99 " << num(h.histP99);
        out << ")\n";
    }
    return true;
}

void
renderReport(const std::vector<JournalEvent> &events,
             const std::vector<MetricSample> &metrics,
             const ReportOptions &opts, std::ostream &out)
{
    out << "sadapt-report\n";
    for (const JournalEvent &ev : events) {
        if (ev.type != "run")
            continue;
        out << "run:";
        for (const auto &[k, v] : ev.fields)
            out << ' ' << k << '=' << fieldText(v);
        out << '\n';
    }
    out << "events: " << events.size() << "\n\n";
    renderTimeline(events, out);
    out << '\n';
    renderReconfigSummary(events, out);
    out << '\n';
    if (renderStoreSection(events, metrics, out))
        out << '\n';
    if (opts.profile && renderProfileSection(metrics, out))
        out << '\n';
    renderMetricRollups(metrics, out);
}

void
renderReport(const std::vector<JournalEvent> &events,
             const std::vector<MetricSample> &metrics,
             std::ostream &out)
{
    renderReport(events, metrics, ReportOptions{}, out);
}

namespace {

void
appendTraceString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    out += '"';
}

} // namespace

void
writeChromeTrace(const std::vector<JournalEvent> &events,
                 std::ostream &out)
{
    // One virtual process, two tracks: epochs (tid 0) as duration
    // slices, control events (tid 1) as instants. Simulated seconds
    // map to trace microseconds.
    constexpr double us = 1e6;
    out << "{\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":0,\"args\":{\"name\":\"sparseadapt\"}},\n";
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":0,\"args\":{\"name\":\"epochs\"}},\n";
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":1,\"args\":{\"name\":\"control\"}}";
    for (const JournalEvent &ev : events) {
        std::string line;
        if (ev.type == "epoch") {
            const double dur =
                ev.numField("seconds").value_or(0.0) * us;
            line += "{\"name\":";
            appendTraceString(line,
                              "epoch " + std::to_string(ev.epoch));
            line += ",\"cat\":\"epoch\",\"ph\":\"X\",\"ts\":";
            line += num(ev.simTime * us);
            line += ",\"dur\":";
            line += num(dur);
            line += ",\"pid\":1,\"tid\":0,\"args\":{\"cfg\":";
            appendTraceString(line, fieldOr(ev, "cfg", "?"));
            line += ",\"metric\":";
            appendTraceString(line, fieldOr(ev, "metric", "?"));
            line += "}}";
        } else if (ev.type == "reconfig" || ev.type == "watchdog" ||
                   ev.type == "fault") {
            line += "{\"name\":";
            if (ev.type == "reconfig") {
                appendTraceString(line, "reconfig");
            } else if (ev.type == "watchdog") {
                appendTraceString(line,
                                  "watchdog " +
                                      fieldOr(ev, "to", "?"));
            } else {
                appendTraceString(line,
                                  "fault " + fieldOr(ev, "kind", "?"));
            }
            line += ",\"cat\":";
            appendTraceString(line, ev.type);
            line += ",\"ph\":\"i\",\"s\":\"g\",\"ts\":";
            line += num(ev.simTime * us);
            line += ",\"pid\":1,\"tid\":1,\"args\":{\"epoch\":";
            line += std::to_string(ev.epoch);
            line += "}}";
        } else {
            continue;
        }
        out << ",\n" << line;
    }

    out << "\n]}\n";
}

namespace {

/** JSON string escaping (same dialect as sadapt_check's JSON mode). */
std::string
jsonEscape(const std::string &s)
{
    std::string r;
    r.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': r += "\\\""; break;
          case '\\': r += "\\\\"; break;
          case '\n': r += "\\n"; break;
          case '\t': r += "\\t"; break;
          case '\r': r += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                r += "\\u00";
                r += hex[(c >> 4) & 0xF];
                r += hex[c & 0xF];
            } else {
                r += c;
            }
        }
    }
    return r;
}

std::string
jsonValue(const FieldValue &v)
{
    if (std::holds_alternative<std::int64_t>(v))
        return std::to_string(std::get<std::int64_t>(v));
    if (std::holds_alternative<double>(v))
        return jsonNum(std::get<double>(v));
    if (std::holds_alternative<bool>(v))
        return std::get<bool>(v) ? "true" : "false";
    return '"' + jsonEscape(std::get<std::string>(v)) + '"';
}

void
jsonFields(const JournalEvent &ev, std::string &out)
{
    out += '{';
    bool first = true;
    for (const auto &[k, v] : ev.fields) {
        if (!first)
            out += ", ";
        out += '"' + jsonEscape(k) + "\": " + jsonValue(v);
        first = false;
    }
    out += '}';
}

} // namespace

void
renderReportJson(const std::vector<JournalEvent> &events,
                 const std::vector<MetricSample> &metrics,
                 const ReportOptions &opts, std::ostream &out)
{
    out << "{\n  \"version\": 1,\n";

    const JournalEvent *run = nullptr;
    for (const JournalEvent &ev : events) {
        if (ev.type == "run") {
            run = &ev;
            break;
        }
    }
    out << "  \"run\": ";
    if (run != nullptr) {
        std::string fields;
        jsonFields(*run, fields);
        out << fields;
    } else {
        out << "null";
    }
    out << ",\n  \"events\": " << events.size() << ",\n";

    out << "  \"timeline\": [";
    bool first = true;
    for (const JournalEvent &ev : events) {
        if (ev.type == "run")
            continue;
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    {\"seq\": " << ev.seq << ", \"epoch\": "
            << ev.epoch << ", \"t\": " << jsonNum(ev.simTime)
            << ", \"path\": \"" << jsonEscape(ev.path)
            << "\", \"type\": \"" << jsonEscape(ev.type)
            << "\", \"fields\": ";
        std::string fields;
        jsonFields(ev, fields);
        out << fields << '}';
    }
    out << (first ? "],\n" : "\n  ],\n");

    // Reconfiguration summary, same tallies as the text renderer.
    struct ParamTally
    {
        std::uint64_t proposed = 0, accepted = 0, vetoed = 0;
    };
    std::map<std::string, ParamTally> per_param;
    std::uint64_t applied = 0;
    double cost_s = 0.0, cost_j = 0.0;
    for (const JournalEvent &ev : events) {
        if (ev.type == "policy") {
            ParamTally &t = per_param[fieldOr(ev, "param", "?")];
            ++t.proposed;
            ++(ev.boolField("accepted").value_or(false) ? t.accepted
                                                        : t.vetoed);
        } else if (ev.type == "reconfig") {
            ++applied;
            cost_s += ev.numField("cost_s").value_or(0.0);
            cost_j += ev.numField("cost_j").value_or(0.0);
        }
    }
    out << "  \"reconfig\": {\"applied\": " << applied
        << ", \"cost_s\": " << jsonNum(cost_s) << ", \"cost_j\": "
        << jsonNum(cost_j) << ", \"params\": [";
    first = true;
    for (const auto &[param, t] : per_param) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    {\"param\": \"" << jsonEscape(param)
            << "\", \"proposed\": " << t.proposed
            << ", \"accepted\": " << t.accepted << ", \"vetoed\": "
            << t.vetoed << '}';
    }
    out << (first ? "]},\n" : "\n  ]},\n");

    // Metrics, name-sorted like the text snapshot.
    std::vector<const MetricSample *> sorted_metrics;
    sorted_metrics.reserve(metrics.size());
    for (const MetricSample &m : metrics)
        sorted_metrics.push_back(&m);
    std::stable_sort(sorted_metrics.begin(), sorted_metrics.end(),
                     [](const MetricSample *a, const MetricSample *b) {
                         return a->name < b->name;
                     });
    out << "  \"metrics\": [";
    first = true;
    for (const MetricSample *m : sorted_metrics) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    {\"name\": \"" << jsonEscape(m->name) << "\", ";
        switch (m->kind) {
          case MetricKind::Counter:
            out << "\"kind\": \"counter\", \"value\": "
                << m->counterValue;
            break;
          case MetricKind::Gauge:
            out << "\"kind\": \"gauge\", \"value\": "
                << jsonNum(m->gaugeValue);
            break;
          case MetricKind::Histogram:
            out << "\"kind\": \"hist\", \"count\": " << m->histCount
                << ", \"sum\": " << m->histSum;
            if (m->histHasQuantiles)
                out << ", \"p50\": " << jsonNum(m->histP50)
                    << ", \"p90\": " << jsonNum(m->histP90)
                    << ", \"p99\": " << jsonNum(m->histP99);
            out << ", \"buckets\": [";
            for (std::size_t i = 0; i < m->histBuckets.size(); ++i) {
                if (i > 0)
                    out << ", ";
                out << '[' << m->histBuckets[i].first << ", "
                    << m->histBuckets[i].second << ']';
            }
            out << ']';
            break;
        }
        out << '}';
    }
    out << (first ? "],\n" : "\n  ],\n");

    // Profile roll-up (null unless requested and present).
    bool have_profile = false;
    if (opts.profile) {
        for (const MetricSample &m : metrics) {
            if (m.name.rfind("profile/", 0) == 0) {
                have_profile = true;
                break;
            }
        }
    }
    out << "  \"profile\": ";
    if (!have_profile) {
        out << "null\n";
    } else {
        std::uint64_t total = 0, attributed = 0;
        const auto axis = [&](const std::string &prefix,
                              const std::string &suffix) {
            std::string body = "{";
            bool axis_first = true;
            for (const MetricSample *m : sorted_metrics) {
                const std::string &name = m->name;
                if (name.rfind(prefix, 0) != 0)
                    continue;
                std::string label = name.substr(prefix.size());
                if (suffix.empty()) {
                    if (label.find('/') != std::string::npos)
                        continue;
                } else {
                    if (label.size() <= suffix.size() ||
                        label.compare(label.size() - suffix.size(),
                                      suffix.size(), suffix) != 0)
                        continue;
                    label.resize(label.size() - suffix.size());
                }
                if (!axis_first)
                    body += ", ";
                body += '"' + jsonEscape(label) +
                    "\": " + std::to_string(m->counterValue);
                axis_first = false;
            }
            body += '}';
            return body;
        };
        for (const MetricSample *m : sorted_metrics) {
            if (m->name == "profile/total_ops")
                total = m->counterValue;
            else if (m->name.rfind("profile/op/", 0) == 0 &&
                     m->name.find('/', sizeof("profile/op/") - 1) ==
                         std::string::npos)
                attributed += m->counterValue;
        }
        out << "{\"total_ops\": " << total << ", \"attributed_ops\": "
            << attributed << ", \"ops\": " << axis("profile/op/", "")
            << ", \"components\": "
            << axis("profile/component/", "/ops") << ", \"phases\": "
            << axis("profile/phase/", "/ops") << "}\n";
    }
    out << "}\n";
}

} // namespace sadapt::obs
