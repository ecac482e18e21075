// The closed-loop harness shared by every workload: a phase of ops with
// its outcome accounting and latency samples, the workload interface,
// and the testbed a workload is built on (rt::Runtime over loopback UDP,
// or net::World for the simulated-fabric split run).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "src/common/bytes.h"
#include "src/core/process.h"
#include "src/net/fabric.h"
#include "src/sim/host.h"

namespace perfbench {

// Preallocated sample storage. The pages are touched at construction,
// so filling it during a timed phase does not show as RSS growth.
class SampleBuffer {
 public:
  explicit SampleBuffer(size_t capacity) : values_(capacity, 0.0) {}
  void Add(double v) {
    if (size_ < values_.size()) {
      values_[size_++] = v;
    }
  }
  void Clear() { size_ = 0; }
  size_t size() const { return size_; }
  std::vector<double> Values() const { return Values(0, size_); }
  // The samples added in [begin, end) (indices in order of Add).
  std::vector<double> Values(size_t begin, size_t end) const {
    return std::vector<double>(values_.begin() + begin,
                               values_.begin() + end);
  }

 private:
  std::vector<double> values_;
  size_t size_ = 0;
};

enum class Outcome { kVerified, kMismatch, kError };

// One closed-loop phase. Each caller issues its next op only after the
// previous one completed and was verified, until the phase expires:
// either a wall-clock deadline (the timed phase) or a fixed op budget
// (warm-up, and runs on the simulated fabric).
class Phase {
 public:
  // Expires at `deadline_ns` (NowNs clock); keeps the latency of each
  // verified op, in milliseconds, in `samples`.
  Phase(int64_t deadline_ns, SampleBuffer* samples)
      : deadline_ns_(deadline_ns), samples_(samples) {}
  // Expires after `ops` issued ops.
  explicit Phase(int64_t ops) : budget_(ops) {}

  bool Expired() const {
    return budget_ >= 0 ? attempted_ >= budget_ : NowNs() >= deadline_ns_;
  }
  // Marks an op issued; returns its issue time.
  int64_t Issue() {
    ++attempted_;
    return NowNs();
  }
  void Complete(int64_t issue_ns, Outcome outcome);
  // Ops issued before `ns` keep no latency sample: they were in flight
  // while the harness paused the loop to take a host reading.
  void ExcludeIssuedBefore(int64_t ns) { exclude_before_ns_ = ns; }
  void CallerStarted() { ++running_; }
  void CallerDone() { --running_; }
  bool Finished() const { return running_ == 0; }

  int64_t attempted() const { return attempted_; }
  int64_t verified() const { return verified_; }
  int64_t mismatches() const { return mismatches_; }
  int64_t errors() const { return errors_; }
  // Issued ops with no outcome yet (outstanding at a deadline).
  int64_t outstanding() const {
    return attempted_ - verified_ - mismatches_ - errors_;
  }

 private:
  int64_t deadline_ns_ = 0;
  int64_t budget_ = -1;
  SampleBuffer* samples_ = nullptr;
  int64_t exclude_before_ns_ = 0;
  int64_t attempted_ = 0;
  int64_t verified_ = 0;
  int64_t mismatches_ = 0;
  int64_t errors_ = 0;
  int running_ = 0;
};

// Where a workload's processes live: a fabric, a host factory, and the
// port every process binds (0 = ephemeral, as on real sockets).
struct Testbed {
  circus::net::Fabric* fabric = nullptr;
  std::function<circus::sim::Host*(const std::string&)> add_host;
  circus::net::Port port = 0;
};

// Named per-layer readings a workload adds to the report.
struct LayerReading {
  std::string name;
  double value = 0;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Every process of the workload (members and client), for the
  // per-layer counters.
  virtual std::vector<circus::core::RpcProcess*> processes() const = 0;
  // Spawns the closed-loop callers of `phase` on the client host.
  virtual void Start(Phase* phase) = 0;
  // End-of-run replica checks; empty when the replicas agree.
  virtual std::string FinalCheck() { return ""; }
  // An argument buffer typical of the workload, for the codec timings.
  virtual circus::Bytes TypicalArguments() const = 0;
  // Application-layer timings since the last reset (none for echo).
  virtual void ResetLayerTimings() {}
  virtual std::vector<LayerReading> LayerTimings() const { return {}; }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
