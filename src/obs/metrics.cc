#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace sadapt::obs {

std::string
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "hist";
    }
    panic("bad MetricKind");
}

std::size_t
Histogram::bucketOf(std::uint64_t v)
{
    return static_cast<std::size_t>(std::bit_width(v));
}

std::uint64_t
Histogram::bucketLo(std::size_t bucket)
{
    if (bucket == 0)
        return 0;
    return std::uint64_t{1} << (bucket - 1);
}

double
Histogram::quantile(double q) const
{
    if (countV == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    const double rank = q * static_cast<double>(countV);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < numBuckets; ++b) {
        if (buckets[b] == 0)
            continue;
        const std::uint64_t below = cum;
        cum += buckets[b];
        if (static_cast<double>(cum) < rank)
            continue;
        if (b == 0)
            return 0.0;
        const double lo = static_cast<double>(bucketLo(b));
        // The last bucket (b == 64) covers [2^63, 2^64); its upper
        // edge is exactly 2 * lo, same as every other power-of-two
        // bucket, so no special case is needed.
        const double hi = 2.0 * lo;
        const double frac = (rank - static_cast<double>(below)) /
                            static_cast<double>(buckets[b]);
        return lo + (hi - lo) * frac;
    }
    // rank <= count always lands inside the loop; keep the compiler
    // happy with the top edge of the occupied range.
    return static_cast<double>(bucketLo(numBuckets - 1));
}

MetricRegistry::Entry &
MetricRegistry::entry(const std::string &name, MetricKind kind)
{
    SADAPT_ASSERT(!name.empty() &&
                      name.find_first_of(" \t\n") == std::string::npos,
                  "metric names must be non-empty and space-free");
    auto it = byName.find(name);
    if (it != byName.end()) {
        SADAPT_ASSERT(it->second->kind == kind,
                      str("metric '", name, "' already registered as ",
                          metricKindName(it->second->kind),
                          ", requested as ", metricKindName(kind)));
        return *it->second;
    }
    entries.push_back(Entry{name, kind, {}, {}, {}});
    byName.emplace(name, &entries.back());
    return entries.back();
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    return entry(name, MetricKind::Counter).counterV;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    return entry(name, MetricKind::Gauge).gaugeV;
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    return entry(name, MetricKind::Histogram).histV;
}

void
MetricRegistry::merge(const MetricRegistry &other)
{
    for (const Entry &e : other.entries) {
        switch (e.kind) {
          case MetricKind::Counter:
            counter(e.name).add(e.counterV.value());
            break;
          case MetricKind::Gauge:
            gauge(e.name).set(e.gaugeV.value());
            break;
          case MetricKind::Histogram:
            histogram(e.name).merge(e.histV);
            break;
        }
    }
}

std::optional<MetricKind>
MetricRegistry::kindOf(const std::string &name) const
{
    auto it = byName.find(name);
    if (it == byName.end())
        return std::nullopt;
    return it->second->kind;
}

namespace {

/** Shortest round-trip decimal for a double. */
std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) {
        // Try shorter representations for readable dumps.
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

} // namespace

void
MetricRegistry::writeText(std::ostream &out) const
{
    out << "sadapt-metrics v1\n";
    // byName is an ordered map, so iteration is already name-sorted.
    for (const auto &[name, e] : byName) {
        switch (e->kind) {
          case MetricKind::Counter:
            out << "counter " << name << ' ' << e->counterV.value()
                << '\n';
            break;
          case MetricKind::Gauge:
            out << "gauge " << name << ' '
                << formatDouble(e->gaugeV.value()) << '\n';
            break;
          case MetricKind::Histogram: {
            const Histogram &h = e->histV;
            out << "hist " << name << " count " << h.count() << " sum "
                << h.sum();
            if (h.count() != 0) {
                out << " p50 " << formatDouble(h.quantile(0.50))
                    << " p90 " << formatDouble(h.quantile(0.90))
                    << " p99 " << formatDouble(h.quantile(0.99));
            }
            out << " buckets";
            for (std::size_t b = 0; b < Histogram::numBuckets; ++b) {
                if (h.bucketCount(b) != 0)
                    out << ' ' << b << ':' << h.bucketCount(b);
            }
            out << '\n';
            break;
          }
        }
    }
    out << "end\n";
}

Result<std::vector<MetricSample>>
readMetricsText(std::istream &in)
{
    std::string line;
    if (!std::getline(in, line) || line != "sadapt-metrics v1")
        return Status::error("metrics dump: missing 'sadapt-metrics "
                             "v1' header");
    std::vector<MetricSample> out;
    bool terminated = false;
    std::uint64_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        if (line == "end") {
            terminated = true;
            break;
        }
        std::istringstream ls(line);
        std::string kind, name;
        ls >> kind >> name;
        MetricSample s;
        s.name = name;
        auto fail = [&](const std::string &what) {
            return Status::error(str("metrics dump line ", line_no,
                                     ": ", what));
        };
        if (name.empty())
            return fail("missing metric name");
        if (kind == "counter") {
            s.kind = MetricKind::Counter;
            if (!(ls >> s.counterValue))
                return fail("bad counter value");
        } else if (kind == "gauge") {
            s.kind = MetricKind::Gauge;
            if (!(ls >> s.gaugeValue))
                return fail("bad gauge value");
        } else if (kind == "hist") {
            s.kind = MetricKind::Histogram;
            std::string kw;
            if (!(ls >> kw) || kw != "count" || !(ls >> s.histCount) ||
                !(ls >> kw) || kw != "sum" || !(ls >> s.histSum) ||
                !(ls >> kw))
                return fail("bad histogram line");
            // Optional quantile summary (emitted when count > 0).
            if (kw == "p50") {
                s.histHasQuantiles = true;
                if (!(ls >> s.histP50) || !(ls >> kw) || kw != "p90" ||
                    !(ls >> s.histP90) || !(ls >> kw) || kw != "p99" ||
                    !(ls >> s.histP99) || !(ls >> kw))
                    return fail("bad histogram quantiles");
            }
            if (kw != "buckets")
                return fail("bad histogram line");
            std::string pair;
            while (ls >> pair) {
                const auto colon = pair.find(':');
                if (colon == std::string::npos)
                    return fail("bad histogram bucket '" + pair + "'");
                std::size_t bucket = 0;
                std::uint64_t count = 0;
                try {
                    bucket = std::stoul(pair.substr(0, colon));
                    count = std::stoull(pair.substr(colon + 1));
                } catch (const std::exception &) {
                    return fail("bad histogram bucket '" + pair + "'");
                }
                if (bucket >= Histogram::numBuckets)
                    return fail("histogram bucket out of range");
                s.histBuckets.emplace_back(bucket, count);
            }
        } else {
            return fail("unknown metric kind '" + kind + "'");
        }
        out.push_back(std::move(s));
    }
    if (!terminated)
        return Status::error(
            "metrics dump: missing 'end' terminator (truncated?)");
    return out;
}

Result<std::vector<MetricSample>>
readMetricsTextFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::error("cannot open metrics dump: " + path);
    return readMetricsText(in);
}

} // namespace sadapt::obs
