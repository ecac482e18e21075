// USE-method utilization telemetry (utilization / saturation / errors,
// per resource). A UtilizationMonitor owns a set of named resources,
// each backed by a pull probe; Sample(now) reads every probe over the
// window since the previous sample, mirrors the readings into Gauges on
// the runtime's MetricsRegistry, grades each resource ok / high /
// saturated, and publishes a kSaturation event on every level
// transition (so saturation episodes land in trace shards next to the
// protocol events they explain).
//
// Sampling is driven externally — the bench loop between sim RunFor
// steps, the node's periodic flush task in rt — so in a World the whole
// pipeline runs on virtual time and ToPrometheus() is byte-stable per
// seed. Probes own their window bookkeeping: each call reports activity
// since the previous call (the first call, window 0, is the baseline).
#ifndef SRC_OBS_UTIL_H_
#define SRC_OBS_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/bus.h"
#include "src/obs/metrics.h"

namespace circus::obs {

enum class SaturationLevel : uint8_t { kOk = 0, kHigh = 1, kSaturated = 2 };
const char* SaturationLevelName(SaturationLevel level);

// One window's reading for a resource, as returned by its probe.
struct ResourceSample {
  double utilization = -1;  // busy share in [0, 1]; negative = n/a
  double queue = 0;         // instantaneous backlog (events, lines, ...)
  uint64_t ops = 0;         // operations completed this window
  uint64_t bytes = 0;       // bytes moved/allocated this window
  uint64_t errors = 0;      // errors this window (drops, EAGAIN, ...)
};
using ResourceProbe = std::function<ResourceSample(int64_t window_ns)>;

// Per-resource grading thresholds. Utilization-graded by default; queue
// thresholds grade backlog-type resources that have no natural busy
// share (negative disables queue grading).
struct ResourceGrading {
  double high_utilization = 0.70;
  double saturated_utilization = 0.90;
  double high_queue = -1;
  double saturated_queue = -1;
};

struct ResourceStats {
  std::string name;
  ResourceGrading grading;
  ResourceSample last;
  SaturationLevel level = SaturationLevel::kOk;
  double utilization_peak = 0;
  double queue_peak = 0;
  uint64_t ops_total = 0;
  uint64_t bytes_total = 0;
  uint64_t errors_total = 0;
  double ops_per_sec = 0;  // over the last window
  double bytes_per_sec = 0;
  // Time-weighted mean utilization across every sampled window.
  double util_weighted_sum = 0;  // sum of utilization * window_ns
  double util_weight_ns = 0;     // total window_ns with a busy share
  double utilization_mean() const {
    return util_weight_ns > 0 ? util_weighted_sum / util_weight_ns : 0;
  }
};

class UtilizationMonitor {
 public:
  UtilizationMonitor() = default;
  UtilizationMonitor(const UtilizationMonitor&) = delete;
  UtilizationMonitor& operator=(const UtilizationMonitor&) = delete;

  // Publishes kSaturation events on level transitions (optional).
  void SetBus(EventBus* bus) { bus_ = bus; }
  // Mirrors readings into `util.<resource>.*` gauges and counters so
  // the plain `metrics` surface sees them too (optional).
  void SetMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  // Registers a resource. The probe is called once per Sample with the
  // elapsed window; it must report the activity since its previous call
  // (capture and subtract its own baselines).
  void AddResource(std::string name, ResourceProbe probe,
                   ResourceGrading grading = ResourceGrading{});

  // Samples every probe. `now_ns` must not go backwards; the first call
  // baselines the probes over a zero-length window.
  void Sample(int64_t now_ns);

  const std::vector<ResourceStats>& resources() const {
    return resources_;
  }
  const ResourceStats* Find(std::string_view name) const;
  SaturationLevel WorstLevel() const;
  uint64_t samples() const { return samples_; }
  int64_t last_sample_ns() const { return last_sample_ns_; }

  // Aligned human-readable table (`circus top` renders its own from the
  // Prometheus form; this one serves logs, benches, and tests).
  std::string ToString() const;
  // `circus_util_*` exposition with one `resource="..."` label per
  // series — the body of the `util` introspection query.
  std::string ToPrometheus() const;

 private:
  void PublishTransition(const ResourceStats& stats, int64_t now_ns);
  void MirrorToMetrics(const ResourceStats& stats,
                       const ResourceSample& delta);

  EventBus* bus_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  std::vector<ResourceProbe> probes_;     // parallel to resources_
  std::vector<ResourceStats> resources_;
  uint64_t samples_ = 0;
  int64_t last_sample_ns_ = 0;
  int64_t last_window_ns_ = 0;
  bool started_ = false;
};

}  // namespace circus::obs

#endif  // SRC_OBS_UTIL_H_
