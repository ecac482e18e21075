// Section 4.2.5 ablation: the Circus paired message protocol (all
// segments transmitted before any is acknowledged) versus the Xerox PARC
// RPC protocol (explicit acknowledgment of every segment but the last).
// The PARC scheme needs only one segment of buffering but roughly
// doubles the packet count of a multi-segment message; the Circus scheme
// sends the minimum number of segments at the cost of unbounded
// buffering. The paper also claims better recovery from lost datagrams
// for Circus on multi-segment messages — visible here as the completion
// time gap widening with the loss rate.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/msg/paired_endpoint.h"
#include "src/net/socket.h"
#include "src/net/world.h"
#include "src/obs/wire.h"

using circus::Bytes;
using circus::Status;
using circus::msg::EndpointOptions;
using circus::msg::Message;
using circus::msg::MessageType;
using circus::msg::PairedEndpoint;
using circus::net::DatagramSocket;
using circus::net::World;
using circus::sim::Duration;
using circus::sim::SyscallCostModel;
using circus::sim::Task;

namespace {

struct Result {
  double completion_ms = 0;
  uint64_t data_segments = 0;
  uint64_t ack_segments = 0;
  uint64_t retransmissions = 0;
};

Result RunTransfer(EndpointOptions::Mode mode, size_t message_bytes,
                   double loss, uint64_t seed) {
  World world(seed, SyscallCostModel::Free());
  circus::net::FaultPlan plan;
  plan.base_delay = Duration::MillisF(1.0);
  plan.loss_probability = loss;
  world.network().set_default_fault_plan(plan);
  circus::sim::Host* client_host = world.AddHost("client");
  circus::sim::Host* server_host = world.AddHost("server");
  DatagramSocket client_socket(&world.network(), client_host, 0);
  DatagramSocket server_socket(&world.network(), server_host, 9000);
  EndpointOptions options;
  options.mode = mode;
  options.retransmit_interval = Duration::Millis(100);
  options.max_retransmits = 100;
  PairedEndpoint client(&client_socket, options);
  PairedEndpoint server(&server_socket, options);

  // Server: echo a short return for each call (the return implicitly
  // acknowledges the call's tail).
  server_host->Spawn([](PairedEndpoint* ep) -> Task<void> {
    while (true) {
      Message m = co_await ep->NextIncomingCall();
      co_await ep->SendMessage(m.peer, MessageType::kReturn, m.call_number,
                               Bytes(8, 'r'));
    }
  }(&server));

  bool done = false;
  double elapsed_ms = 0;
  world.executor().Spawn(
      [](PairedEndpoint* ep, circus::net::NetAddress to, size_t bytes,
         double* out, bool* flag) -> Task<void> {
        const circus::sim::TimePoint t0 = ep->host()->executor().now();
        Status s = co_await ep->SendMessage(to, MessageType::kCall, 1,
                                            Bytes(bytes, 'x'));
        CIRCUS_CHECK(s.ok());
        auto reply = co_await ep->AwaitReturn(to, 1);
        CIRCUS_CHECK(reply.ok());
        *out = (ep->host()->executor().now() - t0).ToMillisF();
        *flag = true;
      }(&client, server.local_address(), message_bytes, &elapsed_ms,
        &done));
  world.RunFor(Duration::Seconds(600));
  CIRCUS_CHECK(done);

  Result r;
  r.completion_ms = elapsed_ms;
  r.data_segments = client.counters().data_segments_sent +
                    server.counters().data_segments_sent;
  r.ack_segments = client.counters().ack_segments_sent +
                   server.counters().ack_segments_sent;
  r.retransmissions = client.counters().retransmitted_segments +
                      server.counters().retransmitted_segments;
  return r;
}

const char* ModeName(EndpointOptions::Mode mode) {
  return mode == EndpointOptions::Mode::kSlidingWindow ? "circus"
                                                       : "parc";
}

// E17: the Section 4.2.4 postponed-acknowledgment analysis, measured on
// the wire rather than from endpoint counters — the wire auditor reads
// every packet event the fabric publishes, and its per-call rollup
// counts the acks that actually crossed versus the ones the returns and
// follow-up calls absorbed.
struct WireCostRow {
  double packets_per_call = 0;
  double bytes_per_call = 0;
  double acks_per_call = 0;
  double implicit_acks_per_call = 0;
  double retransmits_per_call = 0;
};

WireCostRow RunAuditedCalls(bool back_to_back, int calls, uint64_t seed) {
  World world(seed, SyscallCostModel::Free());
  circus::net::FaultPlan plan;
  plan.base_delay = Duration::MillisF(1.0);
  world.network().set_default_fault_plan(plan);
  const EndpointOptions options;
  circus::obs::wire::WireAuditor auditor(
      circus::obs::wire::AuditOptionsFor(options));
  auditor.Attach(&world.bus());
  circus::sim::Host* client_host = world.AddHost("client");
  circus::sim::Host* server_host = world.AddHost("server");
  DatagramSocket client_socket(&world.network(), client_host, 0);
  DatagramSocket server_socket(&world.network(), server_host, 9000);
  PairedEndpoint client(&client_socket, options);
  PairedEndpoint server(&server_socket, options);

  server_host->Spawn([](PairedEndpoint* ep, int n) -> Task<void> {
    for (int i = 0; i < n; ++i) {
      Message m = co_await ep->NextIncomingCall();
      co_await ep->SendMessage(m.peer, MessageType::kReturn, m.call_number,
                               Bytes(8, 'r'));
    }
  }(&server, calls));

  bool done = false;
  client_host->Spawn(
      [](PairedEndpoint* ep, circus::net::NetAddress to, int n, bool gap,
         bool* flag) -> Task<void> {
        for (uint32_t call = 1; call <= static_cast<uint32_t>(n); ++call) {
          Status s = co_await ep->SendMessage(to, MessageType::kCall, call,
                                              Bytes(64, 'x'));
          CIRCUS_CHECK(s.ok());
          auto reply = co_await ep->AwaitReturn(to, call);
          CIRCUS_CHECK(reply.ok());
          if (gap) {
            // Idle past the retransmit timeout: the return cannot ride
            // on the next call, so its acknowledgment goes explicit.
            co_await ep->host()->SleepFor(Duration::Millis(700));
          }
        }
        *flag = true;
      }(&client, server.local_address(), calls, !back_to_back, &done));
  world.RunFor(Duration::Seconds(600));
  CIRCUS_CHECK(done);
  // Let the final return's acknowledgment round finish before closing
  // the audit.
  world.RunFor(Duration::Seconds(5));

  auditor.Detach();
  const circus::obs::wire::AuditReport audit = auditor.Finish();
  // The bench doubles as an oracle run: legal traffic only.
  CIRCUS_CHECK(audit.violations.empty());
  CIRCUS_CHECK(audit.CompletedCalls() == static_cast<size_t>(calls));
  const circus::obs::wire::WireCost totals = audit.Totals();
  WireCostRow row;
  row.packets_per_call = static_cast<double>(audit.packets) / calls;
  row.bytes_per_call = static_cast<double>(audit.bytes) / calls;
  row.acks_per_call = static_cast<double>(totals.acks_sent) / calls;
  row.implicit_acks_per_call =
      static_cast<double>(totals.implicit_acks) / calls;
  row.retransmits_per_call = static_cast<double>(totals.retransmits) / calls;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  circus::bench::BenchReport report("pairmsg_ablation", argc, argv);
  const int kRuns = report.Calls(5, 2);
  report.Note("runs_per_row", kRuns);
  std::printf("Section 4.2.5: Circus sliding-window vs PARC stop-and-wait "
              "paired messages\n");
  std::printf("(one call message of the given size + short return; 1 ms "
              "packet delay;\n %d-run averages)\n\n", kRuns);
  std::printf("%-9s %-7s %7s %10s %8s %8s %10s\n", "message", "mode",
              "loss", "time(ms)", "data", "acks", "retrans");
  for (size_t message_bytes : {4096, 16384, 65536}) {
    if (report.quick() && message_bytes == 16384) {
      continue;  // keep the extremes only for a smoke run
    }
    for (double loss : {0.0, 0.1, 0.3}) {
      if (report.quick() && loss == 0.1) {
        continue;
      }
      for (EndpointOptions::Mode mode :
           {EndpointOptions::Mode::kSlidingWindow,
            EndpointOptions::Mode::kStopAndWait}) {
        Result sum;
        for (int run = 0; run < kRuns; ++run) {
          Result r = RunTransfer(mode, message_bytes, loss,
                                 7000 + run * 31 +
                                     static_cast<uint64_t>(loss * 100));
          sum.completion_ms += r.completion_ms;
          sum.data_segments += r.data_segments;
          sum.ack_segments += r.ack_segments;
          sum.retransmissions += r.retransmissions;
        }
        std::printf("%-9zu %-7s %6.0f%% %10.1f %8.1f %8.1f %10.1f\n",
                    message_bytes, ModeName(mode), loss * 100,
                    sum.completion_ms / kRuns,
                    static_cast<double>(sum.data_segments) / kRuns,
                    static_cast<double>(sum.ack_segments) / kRuns,
                    static_cast<double>(sum.retransmissions) / kRuns);
        report.AddRow("transfer")
            .Set("message_bytes", static_cast<uint64_t>(message_bytes))
            .Set("mode", ModeName(mode))
            .Set("loss", loss)
            .Set("time_ms", sum.completion_ms / kRuns)
            .Set("data_segments",
                 static_cast<double>(sum.data_segments) / kRuns)
            .Set("ack_segments",
                 static_cast<double>(sum.ack_segments) / kRuns)
            .Set("retransmissions",
                 static_cast<double>(sum.retransmissions) / kRuns);
      }
    }
  }
  std::printf("\nexpected shape: PARC acks roughly one per data segment "
              "and pays a round\ntrip per segment; Circus blasts the "
              "window and completes in ~2 flights\nwhen nothing is "
              "lost.\n");

  // E17: packets per call on the audited wire, with and without the
  // postponed-acknowledgment win (Section 4.2.4). Back-to-back calls
  // let every return ride as the call's ack and every next call absorb
  // the previous return's ack; paced calls idle past the timeout and
  // pay the acknowledgment traffic explicitly.
  const int kWireCalls = report.Calls(50, 10);
  std::printf("\nE17: wire cost per call from a packet-tap capture "
              "(%d single-segment calls,\n64-byte args, 8-byte result; "
              "audited clean against Section 4.2)\n\n", kWireCalls);
  std::printf("%-13s %10s %10s %8s %10s %8s\n", "pacing", "packets",
              "bytes", "acks", "implicit", "retrans");
  for (const bool back_to_back : {true, false}) {
    const WireCostRow row = RunAuditedCalls(back_to_back, kWireCalls, 7707);
    const char* pacing = back_to_back ? "back_to_back" : "paced";
    std::printf("%-13s %10.2f %10.1f %8.2f %10.2f %8.2f\n", pacing,
                row.packets_per_call, row.bytes_per_call, row.acks_per_call,
                row.implicit_acks_per_call, row.retransmits_per_call);
    report.AddRow("wire_cost")
        .Set("pacing", pacing)
        .Set("packets_per_call", row.packets_per_call)
        .Set("bytes_per_call", row.bytes_per_call)
        .Set("acks_per_call", row.acks_per_call)
        .Set("implicit_acks_per_call", row.implicit_acks_per_call)
        .Set("retransmits_per_call", row.retransmits_per_call);
  }
  std::printf("\nexpected shape: back-to-back traffic approaches 2 "
              "packets per call (call +\nreturn, zero explicit acks); "
              "paced traffic pays roughly one explicit ack\nper call.\n");
  return 0;
}
