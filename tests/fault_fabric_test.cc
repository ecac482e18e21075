// net::FaultFabric: the fault-injecting decorator at the Fabric seam.
// Covers the property the decorator is built around — seed parity: the
// same seed and the same send sequence produce byte-identical injection
// decisions whether the inner fabric is the simulated Network or the
// real-time UdpFabric — plus the control-command grammar and its error
// paths, and partitions cutting a multi-segment replicated call mid-
// flight (the retransmit machinery must fail the call cleanly, and a
// fresh client must get through once the partition heals).
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/endpoint.h"
#include "src/common/status.h"
#include "src/core/process.h"
#include "src/net/address.h"
#include "src/net/fault_fabric.h"
#include "src/net/socket.h"
#include "src/net/world.h"
#include "src/obs/bus.h"
#include "src/obs/export.h"
#include "src/obs/shard.h"
#include "src/rt/node_config.h"
#include "src/rt/runtime.h"
#include "src/sim/task.h"

namespace circus::net {
namespace {

using circus::Bytes;
using circus::ErrorCode;
using core::ModuleNumber;
using core::RpcProcess;
using core::ServerCallContext;
using core::Troupe;
using core::TroupeId;
using sim::Duration;
using sim::Task;

// The plan used by both halves of the parity test: every decision kind
// (drop, duplicate, reorder, jitter) draws from the rng, so a stream
// mismatch anywhere desynchronizes everything after it.
FaultInjectionPlan BusyPlan() {
  FaultInjectionPlan plan;
  plan.drop = 0.25;
  plan.duplicate = 0.2;
  plan.reorder = 0.15;
  plan.jitter = Duration::Millis(2);
  return plan;
}

constexpr int kParitySends = 300;

// Sends `count` datagrams from `a` to `b` through the fault fabric and
// returns the decision log. SendRaw is synchronous, so decisions happen
// in transmit order without running the executor.
std::vector<std::string> DriveSends(FaultFabric* fabric, DatagramSocket* a,
                                    DatagramSocket* b, int count) {
  std::vector<std::string> log;
  fabric->set_decision_log(&log);
  const Bytes payload(64, 0x5A);
  for (int i = 0; i < count; ++i) {
    EXPECT_TRUE(a->SendRaw(b->local_address(), payload).ok());
  }
  fabric->set_decision_log(nullptr);
  return log;
}

TEST(FaultFabricTest, SeedParityAcrossSimAndRtFabrics) {
  constexpr uint64_t kSeed = 99;

  // Simulated inner fabric.
  World world(7, sim::SyscallCostModel::Free());
  FaultFabric sim_fabric(&world.network(), &world.executor(), kSeed);
  sim_fabric.set_plan(BusyPlan());
  sim::Host* sim_a = world.AddHost("a");
  sim::Host* sim_b = world.AddHost("b");
  DatagramSocket sim_sock_a(&sim_fabric, sim_a, 0);
  DatagramSocket sim_sock_b(&sim_fabric, sim_b, 0);
  const std::vector<std::string> sim_log =
      DriveSends(&sim_fabric, &sim_sock_a, &sim_sock_b, kParitySends);

  // Real-time inner fabric, over real loopback sockets.
  rt::Runtime runtime;
  FaultFabric rt_fabric(&runtime.fabric(), &runtime.executor(), kSeed);
  rt_fabric.set_plan(BusyPlan());
  sim::Host* rt_a = runtime.AddHost("a");
  sim::Host* rt_b = runtime.AddHost("b");
  DatagramSocket rt_sock_a(&rt_fabric, rt_a, 0);
  DatagramSocket rt_sock_b(&rt_fabric, rt_b, 0);
  const std::vector<std::string> rt_log =
      DriveSends(&rt_fabric, &rt_sock_a, &rt_sock_b, kParitySends);

  // Same seed, same sends: byte-identical decisions, including the
  // delay draws ("dup delay=1372us" etc.), on both inner fabrics.
  ASSERT_EQ(sim_log.size(), static_cast<size_t>(kParitySends));
  EXPECT_EQ(sim_log, rt_log);
  EXPECT_EQ(sim_fabric.stats().dropped, rt_fabric.stats().dropped);
  EXPECT_EQ(sim_fabric.stats().duplicated, rt_fabric.stats().duplicated);
  EXPECT_EQ(sim_fabric.stats().reordered, rt_fabric.stats().reordered);
  EXPECT_EQ(sim_fabric.stats().transmitted,
            static_cast<uint64_t>(kParitySends));
  // The plan is busy enough that a silent all-forward run would be a
  // bug, not luck.
  EXPECT_GT(sim_fabric.stats().dropped, 0u);
  EXPECT_GT(sim_fabric.stats().duplicated, 0u);
}

// Observation sits on the inner fabric, before any fault: with every
// datagram duplicated, the bus sees each send exactly once and each of
// its two copies delivered.
TEST(FaultFabricTest, DuplicatedDatagramIsOneSendAndTwoDeliveries) {
  World world(3, sim::SyscallCostModel::Free());
  FaultFabric fabric(&world.network(), &world.executor(), 11);
  FaultInjectionPlan plan;
  plan.duplicate = 1.0;
  fabric.set_plan(plan);
  sim::Host* a = world.AddHost("a");
  sim::Host* b = world.AddHost("b");
  DatagramSocket sock_a(&fabric, a, 0);
  DatagramSocket sock_b(&fabric, b, 0);
  obs::EventLog log(&world.bus());
  constexpr int kSends = 5;
  for (int i = 0; i < kSends; ++i) {
    ASSERT_TRUE(sock_a.SendRaw(sock_b.local_address(),
                               Bytes(8, static_cast<uint8_t>(i)))
                    .ok());
  }
  world.RunFor(Duration::Seconds(1));
  EXPECT_EQ(fabric.stats().duplicated, static_cast<uint64_t>(kSends));

  std::map<Bytes, std::pair<int, int>> seen;  // payload -> (sends, delivers)
  for (const obs::Event& e : log.events()) {
    if (e.kind == obs::EventKind::kPacketSend) {
      ++seen[e.payload].first;
    } else if (e.kind == obs::EventKind::kPacketDeliver) {
      ++seen[e.payload].second;
      EXPECT_EQ(e.b, obs::PackAddress(sock_b.local_address().host,
                                      sock_b.local_address().port));
    }
  }
  ASSERT_EQ(seen.size(), static_cast<size_t>(kSends));
  for (const auto& [payload, counts] : seen) {
    EXPECT_EQ(counts.first, 1);
    EXPECT_EQ(counts.second, 2);
  }
}

TEST(FaultFabricTest, ReseedRestartsTheDecisionStream) {
  World world(7, sim::SyscallCostModel::Free());
  FaultFabric fabric(&world.network(), &world.executor(), 5);
  fabric.set_plan(BusyPlan());
  sim::Host* a = world.AddHost("a");
  sim::Host* b = world.AddHost("b");
  DatagramSocket sock_a(&fabric, a, 0);
  DatagramSocket sock_b(&fabric, b, 0);

  const std::vector<std::string> first =
      DriveSends(&fabric, &sock_a, &sock_b, 100);
  fabric.Reseed(5);
  const std::vector<std::string> second =
      DriveSends(&fabric, &sock_a, &sock_b, 100);
  EXPECT_EQ(first, second);

  fabric.Reseed(6);
  const std::vector<std::string> other =
      DriveSends(&fabric, &sock_a, &sock_b, 100);
  EXPECT_NE(first, other);
}

// ------------------------------------------------- control commands ----

TEST(FaultFabricTest, ApplyCommandRoundTripsEverySetting) {
  World world(1, sim::SyscallCostModel::Free());
  FaultFabric fabric(&world.network(), &world.executor(), 1);

  EXPECT_EQ(*fabric.ApplyCommand("loss 0.5"), "ok");
  EXPECT_DOUBLE_EQ(fabric.plan().drop, 0.5);
  EXPECT_EQ(*fabric.ApplyCommand("dup 0.25"), "ok");
  EXPECT_DOUBLE_EQ(fabric.plan().duplicate, 0.25);
  EXPECT_EQ(*fabric.ApplyCommand("reorder 0.1"), "ok");
  EXPECT_DOUBLE_EQ(fabric.plan().reorder, 0.1);
  EXPECT_EQ(*fabric.ApplyCommand("delay_ms 3"), "ok");
  EXPECT_EQ(fabric.plan().delay, Duration::Millis(3));
  EXPECT_EQ(*fabric.ApplyCommand("jitter_ms 1.5"), "ok");
  EXPECT_EQ(fabric.plan().jitter.nanos(), 1'500'000);
  EXPECT_EQ(*fabric.ApplyCommand("seed 42"), "ok");
  EXPECT_EQ(fabric.seed(), 42u);

  EXPECT_EQ(*fabric.ApplyCommand("partition 127.0.0.1:9001 9002"), "ok");
  EXPECT_TRUE(fabric.partitioned());
  const NetAddress in_island{0x7F000001u, 9001};
  const NetAddress bare_port{0x7F000001u, 9002};
  const NetAddress outside{0x7F000001u, 9003};
  EXPECT_TRUE(fabric.PathBlocked(in_island, outside));
  EXPECT_TRUE(fabric.PathBlocked(outside, bare_port));  // bidirectional
  EXPECT_FALSE(fabric.PathBlocked(in_island, bare_port));  // same island

  const std::string status = *fabric.ApplyCommand("status");
  EXPECT_NE(status.find("partition=["), std::string::npos) << status;

  EXPECT_EQ(*fabric.ApplyCommand("heal"), "ok");
  EXPECT_FALSE(fabric.partitioned());
  EXPECT_DOUBLE_EQ(fabric.plan().drop, 0.5);  // heal keeps the plan

  EXPECT_EQ(*fabric.ApplyCommand("clear"), "ok");
  EXPECT_FALSE(fabric.plan().active());
  EXPECT_FALSE(fabric.partitioned());
}

TEST(FaultFabricTest, ApplyCommandRejectsMalformedInput) {
  World world(1, sim::SyscallCostModel::Free());
  FaultFabric fabric(&world.network(), &world.executor(), 1);

  for (const char* bad :
       {"", "frobnicate", "loss", "loss 1.5", "loss -0.1", "loss abc",
        "dup 2", "reorder x", "delay_ms", "delay_ms -3", "jitter_ms nope",
        "seed", "seed 12junk", "partition", "partition nonsense",
        "partition 127.0.0.1:"}) {
    StatusOr<std::string> reply = fabric.ApplyCommand(bad);
    EXPECT_FALSE(reply.ok()) << "'" << bad << "' was accepted";
    if (!reply.ok()) {
      EXPECT_EQ(reply.status().code(), ErrorCode::kInvalidArgument) << bad;
    }
  }
  // A rejected command must not half-apply.
  EXPECT_FALSE(fabric.plan().active());
  EXPECT_FALSE(fabric.partitioned());
}

// Every endpoint form through the one strict parser and each caller's
// accept set: node configs and CLI flags take any port; the
// fault-control protocol adds its bare-port rule and refuses port 0; a
// shard's origin field reads as 0 when malformed.
TEST(FaultFabricTest, ParseEndpointForms) {
  struct Case {
    const char* text;
    bool parses;         // ParseIpv4Endpoint / ParseNetAddress / configs
    bool fault_control;  // FaultFabric::ParseEndpoint
    uint32_t host;
    uint16_t port;
  };
  const Case kCases[] = {
      {"10.1.2.3:9000", true, true, 0x0A010203u, 9000},
      {"255.255.255.255:65535", true, true, 0xFFFFFFFFu, 65535},
      {"127.0.0.1:0", true, false, 0x7F000001u, 0},
      {"8123", false, true, 0x7F000001u, 8123},
      {"0", false, false, 0, 0},
      {"", false, false, 0, 0},
      {"words", false, false, 0, 0},
      {"10.1.2:9", false, false, 0, 0},
      {"1.2.3.4.5:9", false, false, 0, 0},
      {"1.2.3.4.:9", false, false, 0, 0},
      {"1..2.3:9", false, false, 0, 0},
      {"1.2.3.256:9", false, false, 0, 0},
      {"1111.2.3.4:9", false, false, 0, 0},
      {"1.2.3.4:", false, false, 0, 0},
      {":9000", false, false, 0, 0},
      {"1.2.3.4:70000", false, false, 0, 0},
      {"1.2.3.4:123456", false, false, 0, 0},
      {"1.2.3.4:+80", false, false, 0, 0},
      {"1.2.3.4:-1", false, false, 0, 0},
      {"1.2.3.4 :80", false, false, 0, 0},
      {"1.2.3.4: 80", false, false, 0, 0},
      {"1.2.3.4:80:81", false, false, 0, 0},
      {"10.0.0.3:9000junk", false, false, 0, 0},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    uint32_t host = 0;
    uint16_t port = 0;
    EXPECT_EQ(ParseIpv4Endpoint(c.text, &host, &port), c.parses);
    const circus::StatusOr<NetAddress> address = ParseNetAddress(c.text);
    ASSERT_EQ(address.ok(), c.parses);
    if (c.parses) {
      EXPECT_EQ(*address, (NetAddress{c.host, c.port}));
    }
    EXPECT_EQ(rt::ParseNodeConfig(std::string("role = ringmaster\nlisten = ") +
                                  c.text)
                  .ok(),
              c.parses);

    const std::optional<NetAddress> control =
        FaultFabric::ParseEndpoint(c.text);
    ASSERT_EQ(control.has_value(), c.fault_control);
    if (c.fault_control) {
      EXPECT_EQ(*control, (NetAddress{c.host, c.port}));
    }

    obs::json::Value line = obs::EventToJson(obs::Event{});
    line.Set("origin", c.text);
    obs::Event event;
    ASSERT_TRUE(obs::EventFromJson(line, &event));
    EXPECT_EQ(event.origin, c.parses ? obs::PackAddress(c.host, c.port) : 0);
  }
}

// ------------------------------------------ faults under the protocol --

std::unique_ptr<RpcProcess> MakeEchoProcess(Fabric* fabric, sim::Host* host,
                                            Port port,
                                            ModuleNumber* module) {
  auto process = std::make_unique<RpcProcess>(fabric, host, port);
  *module = process->ExportModule("echo");
  process->ExportProcedure(
      *module, 0,
      [](ServerCallContext&, const Bytes& args) -> Task<StatusOr<Bytes>> {
        co_return Bytes(args);
      });
  return process;
}

Task<void> CallOnce(RpcProcess* client, Troupe troupe, ModuleNumber module,
                    size_t payload_bytes, StatusOr<Bytes>* out, bool* done) {
  const Bytes args(payload_bytes, 0x5A);
  *out = co_await client->Call(client->NewRootThread(), troupe, module, 0,
                               args);
  *done = true;
}

// A partition installed while a multi-segment call message is still in
// flight: the remaining segments and every retransmission are blocked,
// the call fails cleanly, and after heal a fresh client's call (same
// multi-segment size) goes through.
TEST(FaultFabricTest, PartitionDuringInFlightMultiSegmentMessage) {
  World world(5, sim::SyscallCostModel::Free());
  FaultFabric fabric(&world.network(), &world.executor(), 3);

  sim::Host* member_host = world.AddHost("member");
  ModuleNumber module = 0;
  std::unique_ptr<RpcProcess> member =
      MakeEchoProcess(&fabric, member_host, 9100, &module);
  member->SetTroupeId(TroupeId{5001});
  Troupe troupe;
  troupe.id = TroupeId{5001};
  troupe.members.push_back(member->module_address(module));

  sim::Host* client_host = world.AddHost("client");
  RpcProcess client(&fabric, client_host, 9200);

  // 4 KB of arguments: several segments at the ~1.4 KB segment payload
  // ceiling, so the call message genuinely spans datagrams.
  constexpr size_t kBigPayload = 4096;

  // Cut the client off 200 us in — after the first segments left (they
  // transmit immediately) but before anything crosses the 500 us path,
  // so the rest of the exchange hits the partition.
  world.executor().ScheduleAfter(Duration::Micros(200), [&fabric, &client] {
    fabric.PartitionEndpoints({client.process_address()});
  });

  StatusOr<Bytes> result = Status(ErrorCode::kUnavailable, "not run");
  bool done = false;
  client_host->Spawn(
      CallOnce(&client, troupe, module, kBigPayload, &result, &done));
  world.RunFor(Duration::Seconds(30));
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok());
  EXPECT_GT(fabric.stats().blocked_by_partition, 0u);

  // Heal; a fresh client (clean endpoint state, as a new process would
  // have) completes the same multi-segment call.
  fabric.Heal();
  sim::Host* client2_host = world.AddHost("client2");
  RpcProcess client2(&fabric, client2_host, 9201);
  StatusOr<Bytes> healed = Status(ErrorCode::kUnavailable, "not run");
  done = false;
  client2_host->Spawn(
      CallOnce(&client2, troupe, module, kBigPayload, &healed, &done));
  world.RunFor(Duration::Seconds(30));
  ASSERT_TRUE(done);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->size(), kBigPayload);
}

// Injected loss must only slow calls down, never break them: the paired
// message layer's retransmissions absorb a 30% loss plan.
TEST(FaultFabricTest, LossyPlanStillCompletesCallsViaRetransmission) {
  World world(11, sim::SyscallCostModel::Free());
  FaultFabric fabric(&world.network(), &world.executor(), 17);
  FaultInjectionPlan plan;
  plan.drop = 0.3;
  fabric.set_plan(plan);

  sim::Host* member_host = world.AddHost("member");
  ModuleNumber module = 0;
  std::unique_ptr<RpcProcess> member =
      MakeEchoProcess(&fabric, member_host, 9100, &module);
  member->SetTroupeId(TroupeId{5002});
  Troupe troupe;
  troupe.id = TroupeId{5002};
  troupe.members.push_back(member->module_address(module));

  sim::Host* client_host = world.AddHost("client");
  RpcProcess client(&fabric, client_host, 9200);
  for (int i = 0; i < 5; ++i) {
    StatusOr<Bytes> result = Status(ErrorCode::kUnavailable, "not run");
    bool done = false;
    client_host->Spawn(CallOnce(&client, troupe, module, 64, &result, &done));
    world.RunFor(Duration::Seconds(30));
    ASSERT_TRUE(done) << "call " << i;
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_GT(fabric.stats().dropped, 0u);
}

}  // namespace
}  // namespace circus::net
