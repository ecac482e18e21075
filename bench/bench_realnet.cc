// Real-network analogue of Table 4.1: latency of a raw UDP echo and of
// Circus replicated calls at degree 1..3, measured over real loopback
// sockets through rt::Runtime (wall-clock time, kernel UDP path). The
// paper's VAX-11/750 numbers are printed for context only — a modern
// kernel's loopback is three to four orders of magnitude faster than a
// 1985 Ethernet — the point of this bench is the *shape*: Circus degree
// 1 costs a small multiple of a bare UDP exchange, and each added
// member a roughly constant increment, on real sockets as in the
// simulator.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/process.h"
#include "src/obs/metrics.h"
#include "src/rt/runtime.h"

namespace {

using circus::Bytes;
using circus::StatusOr;
using circus::core::ModuleNumber;
using circus::core::RpcProcess;
using circus::core::ServerCallContext;
using circus::core::ThreadId;
using circus::core::Troupe;
using circus::core::TroupeId;
using circus::net::DatagramSocket;
using circus::net::NetAddress;
using circus::rt::Runtime;
using circus::sim::Duration;
using circus::sim::Task;

using circus::bench::SampleStats;
using circus::bench::Summarize;

// ------------------------------------------------------- raw UDP echo --

Task<void> UdpEchoServer(DatagramSocket* socket, int calls) {
  for (int i = 0; i < calls; ++i) {
    circus::net::Datagram d = co_await socket->Receive();
    socket->SendRaw(d.source, std::move(d.payload));
  }
}

Task<void> UdpEchoClient(Runtime* runtime, DatagramSocket* socket,
                         NetAddress server, int calls, int payload_bytes,
                         std::vector<double>* out, bool* done) {
  const Bytes payload(static_cast<size_t>(payload_bytes), 0x5A);
  for (int i = 0; i < calls; ++i) {
    const circus::sim::TimePoint t0 = runtime->loop().WallNow();
    circus::Status sent = co_await socket->Send(server, payload);
    CIRCUS_CHECK(sent.ok());
    co_await socket->Receive();
    out->push_back((runtime->loop().WallNow() - t0).ToMillisF());
  }
  *done = true;
}

SampleStats RunRawUdpEcho(int calls, int payload_bytes) {
  Runtime runtime;
  circus::sim::Host* client_host = runtime.AddHost("client");
  circus::sim::Host* server_host = runtime.AddHost("server");
  DatagramSocket client(&runtime.fabric(), client_host, 0);
  DatagramSocket server(&runtime.fabric(), server_host, 0);

  std::vector<double> samples;
  bool done = false;
  server_host->Spawn(UdpEchoServer(&server, calls));
  client_host->Spawn(UdpEchoClient(&runtime, &client,
                                   server.local_address(), calls,
                                   payload_bytes, &samples, &done));
  CIRCUS_CHECK(runtime.RunUntil([&done] { return done; },
                                Duration::Seconds(60)));
  return Summarize(samples);
}

// ------------------------------------------------ Circus echo, degree n --

Task<void> CircusEchoClient(Runtime* runtime, RpcProcess* process,
                            Troupe troupe, ModuleNumber module, int calls,
                            int payload_bytes, std::vector<double>* out,
                            bool* done) {
  const ThreadId thread = process->NewRootThread();
  const Bytes args(static_cast<size_t>(payload_bytes), 0x5A);
  for (int i = 0; i < calls; ++i) {
    const circus::sim::TimePoint t0 = runtime->loop().WallNow();
    StatusOr<Bytes> r =
        co_await process->Call(thread, troupe, module, 0, args);
    CIRCUS_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    out->push_back((runtime->loop().WallNow() - t0).ToMillisF());
  }
  *done = true;
}

SampleStats RunCircusEchoReal(int degree, int calls, int payload_bytes,
                              circus::obs::MetricsRegistry::Snapshot* snap) {
  Runtime runtime;

  Troupe troupe;
  troupe.id = TroupeId{static_cast<uint64_t>(100 + degree)};
  std::vector<std::unique_ptr<RpcProcess>> members;
  ModuleNumber module = 0;
  for (int i = 0; i < degree; ++i) {
    circus::sim::Host* host =
        runtime.AddHost("member" + std::to_string(i));
    auto process =
        std::make_unique<RpcProcess>(&runtime.fabric(), host, 0);
    module = process->ExportModule("echo");
    process->ExportProcedure(
        module, 0,
        [](ServerCallContext&, const Bytes& args) -> Task<StatusOr<Bytes>> {
          co_return Bytes(args);
        });
    process->SetTroupeId(troupe.id);
    troupe.members.push_back(process->module_address(module));
    members.push_back(std::move(process));
  }

  circus::sim::Host* client_host = runtime.AddHost("client");
  RpcProcess client(&runtime.fabric(), client_host, 0);

  std::vector<double> samples;
  bool done = false;
  client_host->Spawn(CircusEchoClient(&runtime, &client, troupe, module,
                                      calls, payload_bytes, &samples,
                                      &done));
  CIRCUS_CHECK(runtime.RunUntil([&done] { return done; },
                                Duration::Seconds(120)));
  if (snap != nullptr) {
    *snap = runtime.metrics().Snap(runtime.now().nanos());
  }
  return Summarize(samples);
}

void PrintRow(circus::bench::BenchReport& report, const char* label,
              const SampleStats& s, double paper_real_ms) {
  std::printf("%-8s %6zu %10.4f %10.4f %10.4f %10.4f   | %8.1f\n", label,
              s.count, s.mean, s.min, s.p99, s.max, paper_real_ms);
  report.AddRow("realnet")
      .Set("degree", label)
      .Set("calls", static_cast<uint64_t>(s.count))
      .Set("mean_ms", s.mean)
      .Set("min_ms", s.min)
      .Set("p99_ms", s.p99)
      .Set("max_ms", s.max)
      .Set("paper_real_ms", paper_real_ms);
}

// Protocol-health companion to each latency row: what the runtime's
// MetricsRegistry saw during the run (retransmissions, probe rounds,
// the collator wait distribution, loop wakeups). The same instruments a
// live `circus node` exposes through its `metrics` endpoint.
void AddMetricsRow(circus::bench::BenchReport& report, const char* label,
                   const circus::obs::MetricsRegistry::Snapshot& snap) {
  auto counter = [&snap](const char* name) -> uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  circus::obs::HistogramStats wait;
  if (auto it = snap.histograms.find("rpc.collator_wait_ms");
      it != snap.histograms.end()) {
    wait = it->second;
  }
  report.AddRow("realnet_metrics")
      .Set("degree", label)
      .Set("retransmits", counter("msg.retransmits"))
      .Set("probe_rounds", counter("msg.probe_rounds"))
      .Set("duplicates_suppressed", counter("msg.duplicates_suppressed"))
      .Set("loop_wakeups", counter("rt.loop.wakeups"))
      .Set("socket_backpressure", counter("rt.socket.backpressure"))
      .Set("collator_wait_count", wait.count)
      .Set("collator_wait_mean_ms", wait.mean)
      .Set("collator_wait_p50_ms", wait.p50)
      .Set("collator_wait_p90_ms", wait.p90)
      .Set("collator_wait_p99_ms", wait.p99);
}

}  // namespace

int main(int argc, char** argv) {
  circus::bench::BenchReport report("realnet", argc, argv);
  const int kCalls = report.Calls(200, 20);
  const int kPayload = 64;
  report.Note("calls", kCalls);
  report.Note("payload_bytes", kPayload);
  report.Note("transport", "real loopback UDP (rt::Runtime)");

  std::printf("Table 4.1 over real loopback UDP "
              "(ms per call, %d-call average, %d-byte payload)\n",
              kCalls, kPayload);
  std::printf("%-8s %6s %10s %10s %10s %10s   | %8s\n", "degree", "calls",
              "mean", "min", "p99", "max", "real*");
  std::printf("%60s | (* = paper, VAX-11/750 Ethernet)\n", "");

  PrintRow(report, "(UDP)", RunRawUdpEcho(kCalls, kPayload), 26.5);
  constexpr double kPaperReal[] = {48.0, 58.0, 69.4};
  for (int n = 1; n <= 3; ++n) {
    char label[8];
    std::snprintf(label, sizeof(label), "%d", n);
    circus::obs::MetricsRegistry::Snapshot snap;
    PrintRow(report, label, RunCircusEchoReal(n, kCalls, kPayload, &snap),
             kPaperReal[n - 1]);
    AddMetricsRow(report, label, snap);
  }
  return 0;
}
