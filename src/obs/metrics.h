// Metrics registry: named counters and histograms, snapshot-able at any
// simulated time. Everything is single-threaded (the simulation is), so
// counters are plain integers and snapshots are trivially consistent.
//
// Pointers returned by GetCounter/GetHistogram are stable for the
// registry's lifetime; publishers look their instruments up once at
// construction and bump them on the hot path without a map lookup.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace circus::obs {

class MetricsRegistry;

class Counter {
 public:
  void Increment() { ++value_; }
  void Add(uint64_t n) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Fixed-cost histogram: exact count/sum/min/max plus power-of-two
// buckets for percentile estimates (a percentile resolves to its
// bucket's upper bound, clamped to the observed max — deterministic and
// good to within 2x, which is plenty for protocol latencies).
class Histogram {
 public:
  void Observe(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  // p in [0, 1]; 0 with no observations.
  double Percentile(double p) const;
  // (upper bound, cumulative count) per occupied power-of-two bucket,
  // ascending — the Prometheus `_bucket{le=...}` series (without the
  // implicit +Inf row, which equals count()).
  std::vector<std::pair<double, uint64_t>> CumulativeBuckets() const;

 private:
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  // bucket b holds values in (2^(b-1), 2^b]; values <= 0 land in the
  // sentinel bucket INT32_MIN.
  std::map<int, uint64_t> buckets_;
};

// An instantaneous level (queue depth, busy share, backlog). Beyond the
// current value a gauge keeps min/max and a clock-weighted integral, so
// a snapshot reports the *time-weighted* mean over the gauge's lifetime
// — a gauge that sat at 100 for a second and 0 for a millisecond means
// 100, not 50. The clock comes from the owning registry (virtual time
// in a sim World, wall time in rt), which keeps sim snapshots
// deterministic and byte-stable per seed.
class Gauge {
 public:
  void Set(double value);
  void Add(double delta) { Set(value_ + delta); }
  double value() const { return value_; }
  double min() const { return min_; }
  double max() const { return max_; }
  // Time-weighted mean from the first Set through `now_ns`; the plain
  // value while the clock has not advanced past the first Set.
  double MeanUntil(int64_t now_ns) const;

 private:
  friend class MetricsRegistry;
  explicit Gauge(const MetricsRegistry* owner) : owner_(owner) {}

  const MetricsRegistry* owner_;
  bool initialized_ = false;
  double value_ = 0;
  double min_ = 0;
  double max_ = 0;
  int64_t first_ns_ = 0;
  int64_t last_ns_ = 0;
  double integral_ = 0;  // sum of value * dt since first_ns_
};

struct GaugeStats {
  double value = 0;
  double min = 0;
  double max = 0;
  double mean = 0;  // time-weighted, through the snapshot time
};

struct HistogramStats {
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  // Power-of-two (upper bound, cumulative count) pairs, ascending.
  std::vector<std::pair<double, uint64_t>> buckets;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates; the returned pointer stays valid for the
  // registry's lifetime.
  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  Gauge* GetGauge(const std::string& name);

  // The clock gauges weight their means by. World installs the sim
  // clock, Runtime the wall clock; without one, gauges degrade to
  // last-value-only (mean == value).
  void SetClock(std::function<int64_t()> now_ns) {
    clock_ = std::move(now_ns);
  }
  int64_t NowNs() const { return clock_ ? clock_() : 0; }

  // A consistent view of every instrument at `time_ns` (simulated).
  struct Snapshot {
    int64_t time_ns = 0;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, GaugeStats> gauges;
    std::map<std::string, HistogramStats> histograms;

    // Deterministic human-readable rendering, one instrument per line.
    std::string ToString() const;
    // Prometheus text exposition format (version 0.0.4): counters as
    // `circus_<name>_total`, gauges as `circus_<name>` plus
    // `_min`/`_max`/`_avg` companions (avg is the time-weighted mean),
    // histograms twice — as summaries with
    // p50/p90/p99 quantiles plus _sum/_count, and as native histograms
    // (`circus_<name>_hist`) with cumulative power-of-two
    // `_bucket{le=...}` series. Dots in instrument names become
    // underscores. Served by the `circus node` `metrics` endpoint.
    std::string ToPrometheus() const;
  };
  Snapshot Snap(int64_t time_ns) const;

 private:
  std::function<int64_t()> clock_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace circus::obs

#endif  // SRC_OBS_METRICS_H_
