// perfbench: the repository's real-runtime benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One OS process, one thread: the client and every troupe member share
// one rt::Runtime (one IoLoop) over real loopback UDP. Load comes from
// closed loops of at most four caller threads, so a host stall delays
// at most that many ops instead of queueing every later arrival. Every
// op is verified as it completes.
//
// --trace 0 measures the end-to-end metrics in kSetups rounds. Each
// round times one set-up (a fresh Runtime, the troupe, and a fixed count
// of warm-up ops), then runs a timed phase of seconds/kSetups on it:
// fresh runtimes keep the state the protocol retains per call
// (RpcOptions::inbound_retention) young and small. Timings are medians
// over half-second windows, scaled to a reference host speed (see
// MeasureHostSpeed): a shared virtual machine's speed can drift by tens
// of percent over minutes, and the scaling keeps that drift out of
// comparisons between runs made at different times. The table also shows them as measured.
//
// --trace 1 measures the per-layer metrics: an untraced timed phase of
// seconds/2 (layer counters as per-op deltas), then a phase of the same
// length on a second set-up with obs::LatencyAttributor on the runtime
// bus (stage attribution and the cost of tracing), plus codec timings
// and, for the echo workloads, the same echo over the simulated fabric
// (the stack without rt and the kernel).
//
// Prints a table, then as its last line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Exits 1 when an op failed or a reply, replica or self-check was wrong.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/echo.h"
#include "perfbench/harness.h"
#include "perfbench/probes.h"
#include "perfbench/replfs.h"
#include "src/core/wire.h"
#include "src/marshal/marshal.h"
#include "src/msg/paired_endpoint.h"
#include "src/msg/segment.h"
#include "src/obs/latency.h"
#include "src/rt/runtime.h"

namespace perfbench {
namespace {

using circus::Bytes;
using circus::core::RpcProcess;
using circus::obs::LatencyAttributor;
using circus::obs::Stage;
using circus::rt::Runtime;
using circus::sim::Duration;

// ------------------------------------------------------------ workloads --

struct Spec {
  const char* name;
  bool replfs = false;
  EchoShape echo;
  int64_t warmup_ops = 0;  // ops in each set-up
  int64_t stack_ops = 0;   // ops of the simulated-fabric split run
};

const Spec kSpecs[] = {
    {"echo1-seq", false, {1, 1, 16}, 6000, 40000},
    {"echo3-4k", false, {3, 4, 4096}, 1500, 3000},
    {"replfs3-rw", true, {}, 1000, 0},
};

constexpr int kSetups = 5;
// Length of one window of a timed phase.
constexpr double kWindowSeconds = 0.5;
// MeasureHostSpeed() on the reference host: the typical reading on the
// machine the benchmark was defined on (a 4-vCPU VM, GCC 12, Release).
// End-to-end timings are reported as they would read on that host.
constexpr HostSpeed kReferenceHost = {70.0, 26.0};
// Budget, past the end of a timed phase, for in-flight ops to finish;
// ops still outstanding then count as failed.
constexpr double kGraceSeconds = 10;
// Latency samples kept per second of timed phase (several times the
// fastest workload's rate, so no sample is dropped).
constexpr size_t kSamplesPerSecond = 200000;
constexpr int kUdpEchoRounds = 4000;

// ---------------------------------------------------------------- bed --

// A Runtime with one workload on it. Phases live as long as the bed, so
// callers still suspended at a deadline never outlive their phase.
class Bed {
 public:
  Bed(const Spec& spec, uint64_t seed, size_t timing_capacity)
      : runtime_(std::make_unique<Runtime>()) {
    Testbed testbed;
    testbed.fabric = &runtime_->fabric();
    Runtime* runtime = runtime_.get();
    testbed.add_host = [runtime](const std::string& name) {
      return runtime->AddHost(name);
    };
    if (spec.replfs) {
      workload_ =
          std::make_unique<ReplFsWorkload>(testbed, seed, timing_capacity);
    } else {
      workload_ = std::make_unique<EchoWorkload>(testbed, spec.echo, seed);
    }
  }
  Bed(const Bed&) = delete;
  Bed& operator=(const Bed&) = delete;
  // Crashes every host (client first) and drains, so suspended
  // coroutines unwind before the processes they use are destroyed.
  ~Bed() {
    for (size_t i = runtime_->host_count(); i-- > 0;) {
      runtime_->host(i)->Crash();
    }
    runtime_->executor().RunUntilIdle();
    workload_.reset();
    runtime_.reset();
  }

  Runtime& runtime() { return *runtime_; }
  Workload& workload() { return *workload_; }

  Phase* CountedPhase(int64_t ops) {
    phases_.push_back(std::make_unique<Phase>(ops));
    return phases_.back().get();
  }
  Phase* TimedPhase(int64_t deadline_ns, SampleBuffer* samples) {
    phases_.push_back(std::make_unique<Phase>(deadline_ns, samples));
    return phases_.back().get();
  }
  // Runs `phase` until every caller is done or `timeout` passes.
  bool Run(Phase* phase, double timeout_s) {
    workload_->Start(phase);
    return RunUntil([phase] { return phase->Finished(); }, timeout_s);
  }
  bool RunUntil(const std::function<bool()>& done, double timeout_s) {
    return runtime_->RunUntil(done, Duration::SecondsF(timeout_s));
  }

 private:
  std::unique_ptr<Runtime> runtime_;
  std::unique_ptr<Workload> workload_;
  std::deque<std::unique_ptr<Phase>> phases_;
};

// ----------------------------------------------------------- counters --

// Cumulative counters of every layer and of the OS, by name.
using Counters = std::map<std::string, double>;

Counters Snapshot(Bed& bed) {
  auto d = [](auto v) { return static_cast<double>(v); };
  const OsSample os = SampleOs();
  Runtime& rt = bed.runtime();
  const circus::rt::IoLoopStats& loop = rt.loop().stats();
  const circus::rt::UdpFabricStats& fabric = rt.fabric().stats();
  const circus::msg::SegmentStats& segments =
      circus::msg::GlobalSegmentStats();
  const circus::marshal::BufferStats& marshal =
      circus::marshal::GlobalBufferStats();
  Counters c = {
      {"os.user_us", d(os.user_us)},
      {"os.sys_us", d(os.sys_us)},
      {"os.minflt", d(os.minflt)},
      {"os.ctxsw", d(os.ctxsw)},
      {"os.rss_kb", d(os.rss_kb)},
      {"os.udp_rcvbuf_errors", d(os.udp_rcvbuf_errors)},
      {"rt.loop.wakeups", d(loop.wakeups)},
      {"rt.loop.fd_events", d(loop.fd_events)},
      {"rt.loop.timer_fires", d(loop.timer_fires)},
      {"rt.loop.busy_us", d(loop.busy_ns) / 1000},
      {"rt.loop.idle_us", d(loop.idle_ns) / 1000},
      {"rt.fabric.datagrams_sent", d(fabric.packets_sent)},
      {"rt.fabric.datagrams_received", d(fabric.packets_delivered)},
      {"rt.fabric.bytes_sent", d(fabric.bytes_sent)},
      {"rt.fabric.send_errors", d(fabric.send_errors)},
      {"rt.fabric.backpressure", d(fabric.backpressure)},
      {"msg.segment_allocs", d(segments.segments)},
      {"msg.segment_bytes", d(segments.bytes)},
      {"marshal.buffers", d(marshal.buffers)},
      {"marshal.bytes", d(marshal.bytes)},
      {"sim.events", d(rt.executor().events_run())},
  };
  for (RpcProcess* p : bed.workload().processes()) {
    const circus::msg::PairedEndpoint::Counters& e = p->endpoint().counters();
    c["msg.data_segments"] += d(e.data_segments_sent);
    c["msg.ack_segments"] += d(e.ack_segments_sent);
    c["msg.probe_segments"] += d(e.probe_segments_sent);
    c["msg.retransmits"] += d(e.retransmitted_segments);
    c["msg.duplicates_suppressed"] += d(e.duplicate_messages_suppressed);
    c["msg.messages_delivered"] += d(e.messages_delivered);
    const RpcProcess::Stats& s = p->stats();
    c["core.call_messages_received"] += d(s.call_messages_received);
    c["core.calls_executed"] += d(s.calls_executed);
    c["core.argument_disagreements"] += d(s.argument_disagreements);
    c["core.late_members_served"] += d(s.late_members_served);
  }
  return c;
}

// What a window of a timed phase measured.
struct Readings {
  double ops_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double cpu_us_per_op = 0;
};

// One window of a timed phase: its readings as measured, and scaled to
// the reference host.
struct Window {
  Readings raw;
  Readings scaled;
  HostSpeed host;
};

HostSpeed Mean(const HostSpeed& a, const HostSpeed& b) {
  return {(a.user_us + b.user_us) / 2, (a.sys_us + b.sys_us) / 2};
}

// How much longer work that spent `cpu` on a host of speed `host` would
// have taken on the reference host: user time scales with the user
// kernel, system time with the system kernel.
double ReferenceHostFactor(const CpuTimes& cpu, const HostSpeed& host) {
  const double user = static_cast<double>(cpu.user_us);
  const double sys = static_cast<double>(cpu.sys_us);
  if (user + sys <= 0) {
    return 1;
  }
  return (user * kReferenceHost.user_us / host.user_us +
          sys * kReferenceHost.sys_us / host.sys_us) /
         (user + sys);
}

CpuTimes Since(const CpuTimes& start) {
  const CpuTimes now = ProcessCpu();
  return {now.user_us - start.user_us, now.sys_us - start.sys_us};
}

double Median(std::vector<double> v) {
  return circus::bench::Summarize(std::move(v)).p50;
}

// The median over `windows` of `reading(window)`.
template <typename Reading>
double MedianOver(const std::vector<Window>& windows, Reading reading) {
  std::vector<double> v;
  for (const Window& w : windows) {
    v.push_back(reading(w));
  }
  return Median(std::move(v));
}

// The outcome of one timed phase, or of several merged.
struct Measured {
  int64_t attempted = 0;
  int64_t verified = 0;
  int64_t mismatches = 0;
  int64_t errors = 0;
  int64_t outstanding = 0;  // still in flight at the deadline
  size_t sample_count = 0;  // latency samples of verified ops
  std::vector<Window> windows;
  Counters delta;  // counter growth over the phase

  void Merge(const Measured& other) {
    attempted += other.attempted;
    verified += other.verified;
    mismatches += other.mismatches;
    errors += other.errors;
    outstanding += other.outstanding;
    sample_count += other.sample_count;
    windows.insert(windows.end(), other.windows.begin(), other.windows.end());
    for (const auto& [name, value] : other.delta) {
      delta[name] += value;
    }
  }
  double Delta(const std::string& counter) const {
    const auto it = delta.find(counter);
    return it == delta.end() ? 0 : it->second;
  }
  double PerOp(const std::string& counter) const {
    return verified == 0 ? 0 : Delta(counter) / static_cast<double>(verified);
  }
  bool finished() const { return outstanding == 0; }
};

// Runs a timed phase of `seconds`, cut into windows of kWindowSeconds.
// Each window's throughput, latency percentiles and CPU per op are kept
// apart, as measured and scaled to the reference host by the host speed
// read at the window's two ends (the loop is busy nearly all the time,
// so wall time scales as CPU time does); medians over windows shrug off
// the host's bursts of stalls. After the deadline the callers finish
// their in-flight ops.
Measured Measure(Bed& bed, double seconds, SampleBuffer* samples) {
  samples->Clear();
  Measured m;
  const Counters before = Snapshot(bed);
  HostSpeed speed = MeasureHostSpeed();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  Phase* phase = bed.TimedPhase(deadline, samples);
  bed.workload().Start(phase);
  const int windows =
      std::max(1, static_cast<int>(std::lround(seconds / kWindowSeconds)));
  int64_t window_start = start;
  CpuTimes window_cpu = ProcessCpu();
  int64_t window_verified = 0;
  size_t window_sample = 0;
  for (int w = 1; w <= windows && !phase->Finished(); ++w) {
    const int64_t window_end = start + (deadline - start) * w / windows;
    bed.RunUntil(
        [phase, window_end] {
          return phase->Finished() || NowNs() >= window_end;
        },
        kWindowSeconds + kGraceSeconds);
    const double wall_s = static_cast<double>(NowNs() - window_start) / 1e9;
    const CpuTimes cpu = Since(window_cpu);
    const double ops = static_cast<double>(phase->verified() - window_verified);
    const circus::bench::SampleStats lat = circus::bench::Summarize(
        samples->Values(window_sample, samples->size()));
    const HostSpeed end_speed = MeasureHostSpeed();
    phase->ExcludeIssuedBefore(NowNs());
    if (ops > 0) {
      Window win;
      win.host = Mean(speed, end_speed);
      const double f = ReferenceHostFactor(cpu, win.host);
      win.raw = {ops / wall_s, lat.p50, lat.p99,
                 static_cast<double>(cpu.user_us + cpu.sys_us) / ops};
      win.scaled = {win.raw.ops_per_s / f, lat.p50 * f, lat.p99 * f,
                    win.raw.cpu_us_per_op * f};
      m.windows.push_back(win);
    }
    speed = end_speed;
    window_start = NowNs();
    window_cpu = ProcessCpu();
    window_verified = phase->verified();
    window_sample = samples->size();
  }
  bed.RunUntil([phase] { return phase->Finished(); }, kGraceSeconds);
  for (const auto& [name, value] : Snapshot(bed)) {
    m.delta[name] = value - before.at(name);
  }
  m.attempted = phase->attempted();
  m.verified = phase->verified();
  m.mismatches = phase->mismatches();
  m.errors = phase->errors();
  m.outstanding = phase->outstanding();
  m.sample_count = samples->size();
  return m;
}

// -------------------------------------------------------------- codecs --

// Nanoseconds per call of `fn`: the median of five timed batches.
double TimeNs(const std::function<void()>& fn, int iterations) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < iterations; ++i) {
      fn();
    }
    batches.push_back(static_cast<double>(NowNs() - t0) / iterations);
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

struct CodecTimings {
  double segment_ns = 0;
  double call_body_ns = 0;
  double return_body_ns = 0;
};

// Encode + decode of the workload's typical call body, return body, and
// the segments of one call message, as the protocol layers do them.
CodecTimings TimeCodecs(const Bytes& arguments) {
  CodecTimings t;
  circus::core::CallBody call;
  call.thread = circus::core::ThreadId{0x7F000001, 4000, 1};
  call.thread_seq = 7;
  call.module = 1;
  call.arguments = arguments;
  circus::core::ReturnBody ret;
  ret.results = arguments;
  const circus::msg::EndpointOptions endpoint;
  const std::vector<circus::msg::Segment> segments =
      circus::msg::Segmentize(circus::msg::MessageType::kCall, 42,
                              call.Encode(), endpoint.segment_data_bytes);
  constexpr int kIterations = 20000;
  size_t sink = 0;
  t.call_body_ns = TimeNs(
      [&] { sink += circus::core::CallBody::Decode(call.Encode())->thread_seq; },
      kIterations);
  t.return_body_ns = TimeNs(
      [&] { sink += circus::core::ReturnBody::Decode(ret.Encode())->is_error; },
      kIterations);
  t.segment_ns = TimeNs(
      [&] {
        for (const circus::msg::Segment& s : segments) {
          sink += circus::msg::Segment::Decode(s.Encode())->segment_number;
        }
      },
      kIterations);
  if (sink == 1) {
    std::fprintf(stderr, "%zu\n", sink);  // keeps the loops observable
  }
  return t;
}

// ------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
  bool applies = true;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit, note, true});
  }
  // Listed (as 0 in the JSON line) so every workload reports the same
  // names; the table marks it.
  void NotApplicable(const std::string& name, const std::string& unit) {
    metrics_.push_back({name, 0, unit, "n/a on this workload", false});
  }
  // A line printed under the metrics (sentinels, self-check readings).
  void Line(const std::string& line) { lines_.push_back(line); }
  void Fail(const std::string& why) {
    correct_ = false;
    problems_.push_back(why);
  }
  bool correct() const { return correct_; }

  void Print(const char* workload, uint64_t seed, int trace,
             int64_t attempted, int64_t failed) const {
    std::printf("perfbench %s seed=%llu trace=%d\n", workload,
                static_cast<unsigned long long>(seed), trace);
    for (const Metric& m : metrics_) {
      if (m.applies) {
        std::printf("  %-36s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
      } else {
        std::printf("  %-36s %14s %-6s %s\n", m.name.c_str(), "n/a",
                    m.unit.c_str(), m.note.c_str());
      }
    }
    for (const std::string& l : lines_) {
      std::printf("  %s\n", l.c_str());
    }
    for (const std::string& p : problems_) {
      std::printf("  FAILED CHECK: %s\n", p.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
  std::vector<std::string> problems_;
  bool correct_ = true;
};

// Checks a phase's verification outcome; returns false when the bed can
// no longer be used (callers still stuck past the deadline).
bool CheckPhase(const char* label, const Measured& m, Report* report) {
  if (m.mismatches > 0) {
    report->Fail(std::string(label) + ": " + std::to_string(m.mismatches) +
                 " replies differed from the expected value");
  }
  if (m.errors > 0) {
    report->Fail(std::string(label) + ": " + std::to_string(m.errors) +
                 " ops returned an error");
  }
  if (!m.finished()) {
    report->Fail(std::string(label) + ": " + std::to_string(m.outstanding) +
                 " ops still outstanding at the deadline");
  }
  return m.finished();
}

void CheckReplicas(Bed& bed, Report* report) {
  const std::string problem = bed.workload().FinalCheck();
  if (!problem.empty()) {
    report->Fail(problem);
  }
}

size_t SampleCapacity(double seconds) {
  return static_cast<size_t>(std::ceil(seconds + kGraceSeconds)) *
         kSamplesPerSecond;
}

// One set-up: a fresh Runtime and troupe plus a fixed count of warm-up
// ops. When a warm-up op fails, counts the warm-up's ops into `total`,
// fails the report and returns null.
std::unique_ptr<Bed> SetUp(const Spec& spec, uint64_t seed,
                           size_t timing_capacity, double* seconds,
                           Report* report, Measured* total) {
  const int64_t t0 = NowNs();
  auto bed = std::make_unique<Bed>(spec, seed, timing_capacity);
  Phase* warmup = bed->CountedPhase(spec.warmup_ops);
  const bool done = bed->Run(warmup, 60);
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  if (!done || warmup->verified() != spec.warmup_ops) {
    total->attempted += warmup->attempted();
    total->verified += warmup->verified();
    report->Fail("warm-up: " + std::to_string(warmup->mismatches()) +
                 " wrong replies, " + std::to_string(warmup->errors()) +
                 " errors, " + std::to_string(warmup->outstanding()) +
                 " outstanding");
    return nullptr;
  }
  return bed;
}

// ---------------------------------------------------------- trace 0 --

// kSetups rounds of set-up followed by a timed phase of seconds/kSetups
// on that set-up: fresh runtimes keep the state the protocol retains per
// call (RpcOptions::inbound_retention) young and bounded in memory.
int RunEndToEnd(const Spec& spec, uint64_t seed, double seconds) {
  Report report;
  const double part_s = seconds / kSetups;
  SampleBuffer samples(SampleCapacity(part_s));
  std::vector<double> setup_s;         // scaled to the reference host
  std::vector<double> setup_raw_s;
  std::vector<double> rss_kb_per_op;
  Measured total;
  for (int i = 0; i < kSetups && report.correct(); ++i) {
    const HostSpeed speed = MeasureHostSpeed();
    const CpuTimes cpu = ProcessCpu();
    double setup = 0;
    std::unique_ptr<Bed> bed =
        SetUp(spec, seed, SampleCapacity(part_s) / 8, &setup, &report,
              &total);
    const CpuTimes spent = Since(cpu);
    setup_raw_s.push_back(setup);
    setup_s.push_back(
        setup * ReferenceHostFactor(spent, Mean(speed, MeasureHostSpeed())));
    if (bed == nullptr) {
      break;
    }
    const Measured m = Measure(*bed, part_s, &samples);
    rss_kb_per_op.push_back(m.PerOp("os.rss_kb"));
    total.Merge(m);
    if (CheckPhase("timed phase", m, &report)) {
      CheckReplicas(*bed, &report);
    }
  }
  const std::vector<Window>& windows = total.windows;

  // Each timing is the median over windows scaled to the reference host;
  // the note gives the median as measured on this host.
  auto add_timing = [&](const char* name, double Readings::*field,
                        const char* unit, const std::string& extra) {
    char note[160];
    std::snprintf(
        note, sizeof note, "median of %zu windows; %.4g here%s",
        windows.size(),
        MedianOver(windows, [field](const Window& w) { return w.raw.*field; }),
        extra.c_str());
    report.Add(name,
               MedianOver(windows,
                          [field](const Window& w) { return w.scaled.*field; }),
               unit, note);
  };
  char note[160];
  std::snprintf(note, sizeof note,
                "median of %zu set-ups of %lld warm-up ops; %.4g here",
                setup_s.size(), static_cast<long long>(spec.warmup_ops),
                Median(setup_raw_s));
  report.Add("setup_s", Median(setup_s), "s", note);
  const std::string n = ", n=" + std::to_string(total.sample_count);
  add_timing("ops_per_s", &Readings::ops_per_s, "ops/s", "");
  add_timing("p50_ms", &Readings::p50_ms, "ms", n);
  add_timing("p99_ms", &Readings::p99_ms, "ms", n);
  add_timing("cpu_us_per_op", &Readings::cpu_us_per_op, "us", "");
  report.Add("rss_kb_per_op", Median(rss_kb_per_op), "KiB",
             "median of " + std::to_string(rss_kb_per_op.size()) +
                 " timed phases");
  report.Add("ok_ratio",
             total.attempted == 0 ? 0
                                  : static_cast<double>(total.verified) /
                                        static_cast<double>(total.attempted),
             "ratio");
  // Host sentinels: printed beside the result, reported per layer by
  // the traced run.
  std::snprintf(note, sizeof note,
                "sentinel os.udp_rcvbuf_errors %lld, os.udp_echo_us %.2f, "
                "host user/sys kernels %.1f/%.1f us (reference %.0f/%.0f)",
                static_cast<long long>(total.Delta("os.udp_rcvbuf_errors")),
                RawUdpEchoUs(kUdpEchoRounds),
                MedianOver(windows,
                           [](const Window& w) { return w.host.user_us; }),
                MedianOver(windows,
                           [](const Window& w) { return w.host.sys_us; }),
                kReferenceHost.user_us, kReferenceHost.sys_us);
  report.Line(note);
  report.Print(spec.name, seed, 0, std::max<int64_t>(total.attempted, 1),
               total.attempted - total.verified);
  return report.correct() ? 0 : 1;
}

// ---------------------------------------------------------- trace 1 --

void AddLayerCounters(const Measured& m, Report* r) {
  auto per_op = [&](const std::string& counter, const char* unit) {
    r->Add(counter + "_per_op", m.PerOp(counter), unit);
  };
  auto total = [&](const std::string& counter) {
    r->Add(counter, m.Delta(counter), "count");
  };
  per_op("rt.loop.wakeups", "count");
  per_op("rt.loop.fd_events", "count");
  per_op("rt.loop.timer_fires", "count");
  per_op("rt.loop.busy_us", "us");
  const double busy = m.Delta("rt.loop.busy_us");
  const double idle = m.Delta("rt.loop.idle_us");
  r->Add("rt.loop.idle_share", busy + idle > 0 ? idle / (busy + idle) : 0,
         "ratio");
  per_op("rt.fabric.datagrams_sent", "count");
  per_op("rt.fabric.datagrams_received", "count");
  per_op("rt.fabric.bytes_sent", "B");
  const double wakeups = m.Delta("rt.loop.wakeups");
  r->Add("rt.fabric.datagrams_per_wakeup",
         wakeups > 0 ? m.Delta("rt.fabric.datagrams_received") / wakeups : 0,
         "count");
  total("rt.fabric.send_errors");
  total("rt.fabric.backpressure");
  per_op("os.user_us", "us");
  per_op("os.sys_us", "us");
  per_op("os.minflt", "count");
  per_op("os.ctxsw", "count");
  for (const char* counter :
       {"msg.data_segments", "msg.ack_segments", "msg.probe_segments",
        "msg.retransmits", "msg.duplicates_suppressed",
        "msg.messages_delivered", "msg.segment_allocs"}) {
    per_op(counter, "count");
  }
  per_op("msg.segment_bytes", "B");
  per_op("marshal.buffers", "count");
  per_op("marshal.bytes", "B");
  per_op("core.call_messages_received", "count");
  per_op("core.calls_executed", "count");
  total("core.argument_disagreements");
  total("core.late_members_served");
  per_op("sim.events", "count");
}

void AddStages(const LatencyAttributor& att, bool replfs, Report* r) {
  const double total_us = att.end_to_end_us().sum();
  double stage_sum_us = 0;
  auto add = [&](const std::string& stage,
                 const circus::obs::Histogram& h) {
    r->Add("obs.stage." + stage + ".share_pct",
           total_us > 0 ? 100.0 * h.sum() / total_us : 0, "%");
    r->Add("obs.stage." + stage + ".mean_us", h.mean(), "us",
           "n=" + std::to_string(h.count()));
  };
  for (int s = 0; s < circus::obs::kStageCount; ++s) {
    const circus::obs::Histogram& h =
        att.StageHistogramUs(static_cast<Stage>(s));
    stage_sum_us += h.sum();
    add(circus::obs::StageName(static_cast<Stage>(s)), h);
  }
  if (replfs) {
    add("commit_wait", att.commit_wait_us());
    add("broadcast_wait", att.broadcast_wait_us());
  } else {
    for (const char* stage : {"commit_wait", "broadcast_wait"}) {
      r->NotApplicable(std::string("obs.stage.") + stage + ".share_pct",
                       "%");
      r->NotApplicable(std::string("obs.stage.") + stage + ".mean_us", "us");
    }
  }
  // Self-check: the stages telescope, so they sum to end to end.
  if (att.calls() == 0 ||
      std::fabs(stage_sum_us - total_us) > 1e-6 * std::max(1.0, total_us)) {
    r->Fail("attributor stage sums (" + std::to_string(stage_sum_us) +
            " us) differ from end to end (" + std::to_string(total_us) +
            " us)");
  }
}

// Rounds of the traced run: untraced and traced alternate, each on a
// fresh set-up, so both kinds see runtimes of the same age and the same
// drift of the host.
constexpr int kLayerRounds = 4;

int RunPerLayer(const Spec& spec, uint64_t seed, double seconds) {
  Report report;
  const double round_s = seconds / kLayerRounds;
  const size_t capacity = SampleCapacity(round_s);
  SampleBuffer samples(capacity);
  const double udp_echo_us = RawUdpEchoUs(kUdpEchoRounds);

  CodecTimings codecs;
  std::vector<LayerReading> app_timings;  // of the first untraced round
  Measured plain;
  Measured traced;
  Measured warmups;
  LatencyAttributor attributor;
  for (int round = 0; round < kLayerRounds && report.correct(); ++round) {
    const bool trace = round % 2 == 1;
    double setup_s = 0;
    std::unique_ptr<Bed> bed =
        SetUp(spec, seed, capacity / 8, &setup_s, &report, &warmups);
    if (bed == nullptr) {
      break;
    }
    if (round == 0) {
      codecs = TimeCodecs(bed->workload().TypicalArguments());
      bed->workload().ResetLayerTimings();
    }
    if (trace) {
      attributor.Attach(&bed->runtime().bus());
    }
    const Measured m = Measure(*bed, round_s, &samples);
    attributor.Detach();
    if (round == 0) {
      app_timings = bed->workload().LayerTimings();
    }
    (trace ? traced : plain).Merge(m);
    if (CheckPhase(trace ? "traced phase" : "untraced phase", m, &report)) {
      CheckReplicas(*bed, &report);
    }
  }

  AddLayerCounters(plain, &report);
  report.Add("os.udp_rcvbuf_errors",
             plain.Delta("os.udp_rcvbuf_errors") +
                 traced.Delta("os.udp_rcvbuf_errors"),
             "count", "all timed phases");
  report.Add("os.udp_echo_us", udp_echo_us, "us", "raw UDP, median");
  report.Add("os.host_user_kernel_us",
             MedianOver(plain.windows,
                        [](const Window& w) { return w.host.user_us; }),
             "us", "host speed; reference host reads 70");
  report.Add("os.host_sys_kernel_us",
             MedianOver(plain.windows,
                        [](const Window& w) { return w.host.sys_us; }),
             "us", "host speed; reference host reads 26");
  report.Add("msg.segment_codec_ns", codecs.segment_ns, "ns",
             "encode+decode, all segments of one call");
  report.Add("core.call_body_codec_ns", codecs.call_body_ns, "ns");
  report.Add("core.return_body_codec_ns", codecs.return_body_ns, "ns");
  if (spec.replfs) {
    report.NotApplicable("core.stack_cpu_us_per_op", "us");
    for (const LayerReading& l : app_timings) {
      report.Add(l.name, l.value, l.unit);
    }
  } else {
    report.Add("core.stack_cpu_us_per_op",
               StackCpuUsPerOp(spec.echo, seed, spec.stack_ops), "us",
               "net::World, free syscalls, no delay");
    for (const char* name :
         {"apps.replfs.open_us", "apps.replfs.write_us",
          "apps.replfs.close_us", "apps.replfs.read_us",
          "txn.commit_us_p50", "txn.commit_us_p99"}) {
      report.NotApplicable(name, "us");
    }
    report.NotApplicable("txn.attempts_per_txn", "ratio");
  }
  AddStages(attributor, spec.replfs, &report);
  // Compared at reference-host speed: the two phases run at different
  // times, and the host's speed may have moved in between.
  auto scaled_cpu = [](const Window& w) { return w.scaled.cpu_us_per_op; };
  const double plain_cpu = MedianOver(plain.windows, scaled_cpu);
  const double traced_cpu = MedianOver(traced.windows, scaled_cpu);
  report.Add("obs.trace_overhead_pct",
             plain_cpu > 0 ? 100.0 * (traced_cpu - plain_cpu) / plain_cpu : 0,
             "%",
             "cpu_us_per_op " + std::to_string(plain_cpu) + " -> " +
                 std::to_string(traced_cpu));

  // Self-checks. The per-layer user + sys time adds up to the CPU per op
  // of the timed phases (within what separates the whole phases' mean
  // from the windows' median), and tracing does not change the traffic
  // an op generates.
  const double user_sys = plain.PerOp("os.user_us") + plain.PerOp("os.sys_us");
  const double window_cpu = MedianOver(
      plain.windows, [](const Window& w) { return w.raw.cpu_us_per_op; });
  if (std::fabs(user_sys - window_cpu) > 0.1 * user_sys) {
    report.Fail("user + sys per op " + std::to_string(user_sys) +
                " us is not the windows' cpu per op " +
                std::to_string(window_cpu) + " us");
  }
  const double sent_plain = plain.PerOp("rt.fabric.datagrams_sent");
  const double sent_traced = traced.PerOp("rt.fabric.datagrams_sent");
  if (std::fabs(sent_plain - sent_traced) > 0.02 * sent_plain) {
    report.Fail("datagrams_sent_per_op differs untraced " +
                std::to_string(sent_plain) + " vs traced " +
                std::to_string(sent_traced));
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "self-check user+sys %.2f us/op vs windows %.2f; "
                "datagrams_sent_per_op untraced %.4f traced %.4f",
                user_sys, window_cpu, sent_plain, sent_traced);
  report.Line(line);

  const int64_t attempted =
      warmups.attempted + plain.attempted + traced.attempted;
  const int64_t verified = warmups.verified + plain.verified + traced.verified;
  report.Print(spec.name, seed, 1, std::max<int64_t>(attempted, 1),
               attempted - verified);
  return report.correct() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <echo1-seq|echo3-4k|replfs3-rw> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::kSpecs;
  const char* workload = nullptr;
  unsigned long long seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace = std::atoi(value);
    } else {
      return perfbench::Usage();
    }
  }
  if (argc % 2 == 0 || workload == nullptr || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return perfbench::Usage();
  }
  for (const perfbench::Spec& spec : kSpecs) {
    if (std::strcmp(spec.name, workload) == 0) {
      return trace == 0 ? perfbench::RunEndToEnd(spec, seed, seconds)
                        : perfbench::RunPerLayer(spec, seed, seconds);
    }
  }
  return perfbench::Usage();
}
