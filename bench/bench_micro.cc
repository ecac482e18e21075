// Real-time (wall clock) micro-benchmarks of the compute-bound pieces of
// the reproduction, using google-benchmark: the stub compiler front end
// and back end (Table 7.1's pipeline), the externalization layer
// (Figure 7.1), the segment codec (Figure 4.2), and the simulation
// kernel's event throughput and timeout-race cost. Unlike the
// table/figure benches these measure this implementation's own speed,
// not simulated time.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/marshal/marshal.h"
#include "src/msg/segment.h"
#include "src/sim/executor.h"
#include "src/stubgen/codegen.h"
#include "src/stubgen/idl_parser.h"

namespace {

constexpr const char* kNameServerIdl = R"(
NameServer: PROGRAM 26 VERSION 1 =
BEGIN
  Name: TYPE = STRING;
  Property: TYPE = RECORD [name: Name, value: SEQUENCE OF UNSPECIFIED];
  Properties: TYPE = SEQUENCE OF Property;
  Kind: TYPE = ENUMERATION {user(0), machine(1), service(2)};
  AlreadyExists: ERROR = 0;
  NotFound: ERROR = 1;
  Register: PROCEDURE [name: Name, properties: Properties]
    REPORTS [AlreadyExists] = 0;
  Lookup: PROCEDURE [name: Name] RETURNS [properties: Properties]
    REPORTS [NotFound] = 1;
  Delete: PROCEDURE [name: Name] REPORTS [NotFound] = 2;
END.
)";

void BM_IdlParse(benchmark::State& state) {
  for (auto _ : state) {
    auto program = circus::stubgen::ParseProgram(kNameServerIdl);
    benchmark::DoNotOptimize(program);
  }
}
BENCHMARK(BM_IdlParse);

void BM_StubCodegen(benchmark::State& state) {
  auto program = circus::stubgen::ParseProgram(kNameServerIdl);
  for (auto _ : state) {
    std::string header = circus::stubgen::GenerateHeader(*program);
    benchmark::DoNotOptimize(header);
  }
}
BENCHMARK(BM_StubCodegen);

void BM_MarshalWrite(benchmark::State& state) {
  const std::string name = "a-registered-service-name";
  for (auto _ : state) {
    circus::marshal::Writer w;
    for (int i = 0; i < 32; ++i) {
      w.WriteString(name);
      w.WriteU32(i);
      w.WriteI64(-i);
    }
    benchmark::DoNotOptimize(w.bytes());
  }
  state.SetBytesProcessed(state.iterations() * 32 *
                          (name.size() + 4 + 4 + 8));
}
BENCHMARK(BM_MarshalWrite);

void BM_MarshalRead(benchmark::State& state) {
  circus::marshal::Writer w;
  for (int i = 0; i < 32; ++i) {
    w.WriteString("a-registered-service-name");
    w.WriteU32(i);
    w.WriteI64(-i);
  }
  const circus::Bytes data = w.Take();
  for (auto _ : state) {
    circus::marshal::Reader r(data);
    for (int i = 0; i < 32; ++i) {
      benchmark::DoNotOptimize(r.ReadString());
      benchmark::DoNotOptimize(r.ReadU32());
      benchmark::DoNotOptimize(r.ReadI64());
    }
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_MarshalRead);

void BM_SegmentEncodeDecode(benchmark::State& state) {
  circus::msg::Segment s;
  s.type = circus::msg::MessageType::kCall;
  s.call_number = 42;
  s.total_segments = 3;
  s.segment_number = 2;
  s.data = circus::Bytes(1024, 'd');
  for (auto _ : state) {
    circus::Bytes wire = s.Encode();
    auto decoded = circus::msg::Segment::Decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * 1032);
}
BENCHMARK(BM_SegmentEncodeDecode);

void BM_ExecutorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    circus::sim::Executor executor;
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      executor.ScheduleAfter(circus::sim::Duration::Micros(i),
                             [&counter] { ++counter; });
    }
    executor.RunUntilIdle();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ExecutorEventThroughput);

// One wait of a real-runtime call, executor side: arm its timeout, run the
// value's wakeup that wins the race, cancel the losing timeout, and let
// 10 us of clock pass. The queue holds 10^5 far-future events, the
// backlog an echo1-seq process carried while dead timeouts stayed queued.
void BM_ExecutorTimeoutRace(benchmark::State& state) {
  using circus::sim::Duration;
  circus::sim::Executor executor;
  for (int i = 0; i < 100000; ++i) {
    executor.ScheduleAfter(Duration::Seconds(3600) + Duration::Micros(i),
                           [] {});
  }
  int wakeups = 0;
  for (auto _ : state) {
    const uint64_t timeout =
        executor.ScheduleAfter(Duration::Millis(300), [] {});
    executor.ScheduleAfter(Duration::Zero(), [&wakeups] { ++wakeups; });
    executor.RunOne();
    executor.Cancel(timeout);
    executor.RunFor(Duration::Micros(10));
  }
  benchmark::DoNotOptimize(wakeups);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutorTimeoutRace);

// Mirrors each google-benchmark run into the shared BENCH_micro.json
// report (one "micro" table row per benchmark) while keeping the usual
// console output.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(circus::bench::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      report_->AddRow("micro")
          .Set("name", run.benchmark_name())
          .Set("iterations", static_cast<int64_t>(run.iterations))
          .Set("real_ns_per_iter", run.GetAdjustedRealTime())
          .Set("cpu_ns_per_iter", run.GetAdjustedCPUTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  circus::bench::BenchReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  circus::bench::BenchReport report("micro", argc, argv);
  // Forward everything except the report's own flags to google-benchmark;
  // --quick maps to a short minimum measuring time.
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick" || arg.rfind("--json", 0) == 0) {
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  std::string min_time = "--benchmark_min_time=0.01";
  if (report.quick()) {
    bench_argv.push_back(min_time.data());
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  CapturingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
