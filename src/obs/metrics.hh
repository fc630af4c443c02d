/**
 * @file
 * The run-wide metrics registry of the observability layer.
 *
 * Components register counters, gauges and histograms by hierarchical
 * slash-separated name ("sim/l1/accesses", "adapt/policy/vetoed") and
 * keep the returned reference; updates are plain member stores with no
 * allocation, no locking and no wall-clock reads, so instrumented runs
 * stay deterministic. Histograms use fixed log2 buckets (bucket 0
 * holds the value 0, bucket i >= 1 holds [2^(i-1), 2^i)), sized for
 * cycle/byte counts without per-sample allocation.
 *
 * A registry snapshot (writeMetricsText) is sorted by name and prints
 * values exactly, so two identical runs produce byte-identical dumps.
 */

#ifndef SADAPT_OBS_METRICS_HH
#define SADAPT_OBS_METRICS_HH

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hh"

namespace sadapt::obs {

/** The three instrument kinds of the registry. */
enum class MetricKind : std::uint8_t
{
    Counter,
    Gauge,
    Histogram,
};

/** Human-readable kind name ("counter", "gauge", "hist"). */
std::string metricKindName(MetricKind kind);

/** Monotone event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { valueV += n; }
    std::uint64_t value() const { return valueV; }

  private:
    std::uint64_t valueV = 0;
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { valueV = v; }
    double value() const { return valueV; }

  private:
    double valueV = 0.0;
};

/**
 * Fixed log2-bucket histogram of non-negative integer samples.
 * Bucket 0 counts observations of 0; bucket i >= 1 counts
 * observations in [2^(i-1), 2^i). 65 buckets cover all of uint64.
 */
class Histogram
{
  public:
    static constexpr std::size_t numBuckets = 65;

    void
    observe(std::uint64_t v)
    {
        ++buckets[bucketOf(v)];
        ++countV;
        sumV += v;
    }

    /** Bucket index a value falls into. */
    static std::size_t bucketOf(std::uint64_t v);

    /** Inclusive lower edge of a bucket (0 for bucket 0). */
    static std::uint64_t bucketLo(std::size_t bucket);

    std::uint64_t count() const { return countV; }
    std::uint64_t sum() const { return sumV; }
    std::uint64_t bucketCount(std::size_t b) const { return buckets[b]; }

    /**
     * Deterministic quantile estimate (q in [0, 1], clamped). The
     * rank q*count is located in the cumulative bucket counts and
     * interpolated linearly inside the containing bucket's [lo, hi)
     * edge range, assuming samples spread uniformly within a bucket.
     * Bucket 0 holds only the value 0, so ranks landing there return
     * exactly 0. Returns 0 for an empty histogram. Pure arithmetic on
     * the bucket counts: snapshots stay bit-identical across runs.
     */
    double quantile(double q) const;

    /** Bucket-wise accumulate another histogram into this one. */
    void
    merge(const Histogram &other)
    {
        for (std::size_t b = 0; b < numBuckets; ++b)
            buckets[b] += other.buckets[b];
        countV += other.countV;
        sumV += other.sumV;
    }

  private:
    std::array<std::uint64_t, numBuckets> buckets{};
    std::uint64_t countV = 0;
    std::uint64_t sumV = 0;
};

struct MetricSample;

/**
 * Owns every instrument of one run, keyed by hierarchical name.
 * Accessors register on first use and return the existing instrument
 * on repeat calls; requesting an existing name as a different kind is
 * a programming error (panic), since two components would silently
 * split one name otherwise. References stay valid for the registry's
 * lifetime.
 */
class MetricRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Kind of a registered name; nullopt when never registered. */
    std::optional<MetricKind> kindOf(const std::string &name) const;

    /**
     * Fold another registry into this one: counters add, histograms
     * add bucket-wise, gauges take the other registry's value
     * (last-write-wins, so merging shards in request order reproduces
     * a serial run's final value). Requesting an existing name as a
     * different kind panics, as with the accessors. Used by the
     * parallel sweep engine to commit per-worker metric shards at its
     * deterministic merge points (DESIGN.md section 9).
     */
    void merge(const MetricRegistry &other);

    std::size_t size() const { return entries.size(); }

    /**
     * Deterministic text snapshot, sorted by name:
     *
     *   sadapt-metrics v1
     *   counter sim/l1/accesses 1234
     *   gauge adapt/watchdog/reference 0.93
     *   hist sim/epoch_cycles count 3 sum 70 buckets 4:1 5:2
     *   end
     */
    void writeText(std::ostream &out) const;

  private:
    struct Entry
    {
        std::string name;
        MetricKind kind;
        Counter counterV;
        Gauge gaugeV;
        Histogram histV;
    };

    Entry &entry(const std::string &name, MetricKind kind);

    std::deque<Entry> entries; //!< deque: stable instrument addresses
    std::map<std::string, Entry *> byName;
};

/** One metric parsed back from a text snapshot. */
struct MetricSample
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t counterValue = 0;                //!< Counter
    double gaugeValue = 0.0;                       //!< Gauge
    std::uint64_t histCount = 0, histSum = 0;      //!< Histogram
    bool histHasQuantiles = false; //!< p50/p90/p99 present on the line
    double histP50 = 0.0, histP90 = 0.0, histP99 = 0.0;
    std::vector<std::pair<std::size_t, std::uint64_t>> histBuckets;
};

/**
 * Parse a writeText() snapshot. Unknown versions, malformed lines and
 * a missing "end" terminator are recoverable errors.
 */
[[nodiscard]] Result<std::vector<MetricSample>>
readMetricsText(std::istream &in);

/** readMetricsText() from a file path. */
[[nodiscard]] Result<std::vector<MetricSample>>
readMetricsTextFile(const std::string &path);

} // namespace sadapt::obs

#endif // SADAPT_OBS_METRICS_HH
