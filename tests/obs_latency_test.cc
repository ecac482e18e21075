// Stage-level latency attribution (src/obs/latency.h) against real
// protocol runs in the deterministic simulator. The load-bearing
// property is conservation: for every finalized call, the per-stage
// durations sum exactly to the end-to-end latency — checked here for
// plain unanimous calls, for the troupe commit protocol, and for
// ordered broadcast. Same-seed runs must render byte-identical reports,
// and a planted slow handler must cross the slow-call threshold (the
// negative test behind `circus node`'s slow_call_us= dump).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/core/process.h"
#include "src/marshal/marshal.h"
#include "src/net/world.h"
#include "src/obs/latency.h"
#include "src/txn/commit.h"
#include "src/txn/ordered_broadcast.h"
#include "src/txn/store.h"

namespace circus::obs {
namespace {

using core::ModuleNumber;
using core::ProcedureNumber;
using core::RpcProcess;
using core::ServerCallContext;
using core::ThreadId;
using core::Troupe;
using net::World;
using sim::Duration;
using sim::SyscallCostModel;
using sim::Task;

// Sum of every stage that applies to the call (StageNs is -1 for the
// stages of the other decomposition).
int64_t StageSumNs(const CallTimeline& t) {
  int64_t sum = 0;
  for (int s = 0; s < kStageCount; ++s) {
    const int64_t v = t.StageNs(static_cast<Stage>(s));
    if (v >= 0) {
      sum += v;
    }
  }
  return sum;
}

void ExpectConservation(const LatencyAttributor& attributor) {
  ASSERT_FALSE(attributor.slowest().empty());
  for (const CallExemplar& ex : attributor.slowest()) {
    EXPECT_EQ(StageSumNs(ex.timeline), ex.timeline.end_to_end_ns())
        << ex.timeline.ToString();
  }
  // The same identity aggregated: stage histogram mass sums to the
  // end-to-end mass (all in microseconds, so tolerate float rounding).
  double stage_mass = 0;
  for (int s = 0; s < kStageCount; ++s) {
    stage_mass += attributor.StageHistogramUs(static_cast<Stage>(s)).sum();
  }
  const double e2e_mass = attributor.end_to_end_us().sum();
  EXPECT_NEAR(stage_mass, e2e_mass, 1e-6 * (1 + e2e_mass));
}

// ------------------------------------------------------ echo troupe --

struct EchoTroupe {
  std::vector<std::unique_ptr<RpcProcess>> members;
  Troupe troupe;
  ModuleNumber module = 0;
};

// `handler_sleep` plants extra in-handler time (the slow-call test).
EchoTroupe MakeEchoTroupe(World* world, int n, Duration handler_sleep) {
  EchoTroupe t;
  t.troupe.id = core::TroupeId{500};
  for (int i = 0; i < n; ++i) {
    sim::Host* host = world->AddHost("srv" + std::to_string(i));
    auto process =
        std::make_unique<RpcProcess>(&world->network(), host, 9000);
    t.module = process->ExportModule("echo");
    process->ExportProcedure(
        t.module, 0,
        [host, handler_sleep](ServerCallContext&,
                              const Bytes& args) -> Task<StatusOr<Bytes>> {
          if (handler_sleep > Duration::Zero()) {
            co_await host->SleepFor(handler_sleep);
          }
          co_return Bytes(args);
        });
    process->SetTroupeId(t.troupe.id);
    t.troupe.members.push_back(process->module_address(t.module));
    t.members.push_back(std::move(process));
  }
  return t;
}

Task<void> EchoLoop(RpcProcess* client, Troupe troupe, ModuleNumber module,
                    int calls, bool* done) {
  const ThreadId thread = client->NewRootThread();
  const Bytes args(16, 'e');
  for (int i = 0; i < calls; ++i) {
    StatusOr<Bytes> r =
        co_await client->Call(thread, troupe, module, 0, args);
    CIRCUS_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  }
  *done = true;
}

// Runs `calls` unanimous echo calls at troupe degree `n` under the
// Berkeley cost model and returns the attributor's report strings.
struct EchoRun {
  std::string table;
  std::string prometheus;
};

EchoRun RunEcho(uint64_t seed, int n, int calls,
                LatencyAttributor* attributor) {
  World world(seed, SyscallCostModel::Berkeley42Bsd());
  attributor->Attach(&world.bus());
  EchoTroupe t = MakeEchoTroupe(&world, n, Duration::Zero());
  sim::Host* client_host = world.AddHost("client");
  RpcProcess client(&world.network(), client_host, 8000);
  bool done = false;
  world.executor().Spawn(
      EchoLoop(&client, t.troupe, t.module, calls, &done));
  world.RunFor(Duration::Seconds(60));
  EXPECT_TRUE(done);
  EchoRun run;
  run.table = attributor->ToString();
  run.prometheus = attributor->ToPrometheus();
  attributor->Detach();
  return run;
}

TEST(ObsLatencyTest, UnanimousCallStagesSumToEndToEnd) {
  for (int n = 1; n <= 3; ++n) {
    LatencyAttributor::Options options;
    options.max_exemplars = 64;  // keep every call for the check
    LatencyAttributor attributor(options);
    RunEcho(7000 + n, n, 10, &attributor);
    EXPECT_EQ(attributor.calls(), 10u);
    EXPECT_EQ(attributor.dropped_pending(), 0u);
    ASSERT_EQ(attributor.slowest().size(), 10u);
    // The sim bus sees both sides, so the decomposed stages (not the
    // server_roundtrip fallback) must carry the attribution.
    for (const CallExemplar& ex : attributor.slowest()) {
      EXPECT_TRUE(ex.timeline.has_server_leg()) << ex.timeline.ToString();
      EXPECT_EQ(ex.timeline.StageNs(Stage::kServerRoundtrip), -1);
    }
    EXPECT_EQ(attributor.StageHistogramUs(Stage::kServerRoundtrip).count(),
              0u);
    ExpectConservation(attributor);
  }
}

TEST(ObsLatencyTest, SameSeedRunsRenderByteIdenticalReports) {
  LatencyAttributor::Options options;
  options.max_exemplars = 16;
  LatencyAttributor first(options);
  LatencyAttributor second(options);
  const EchoRun a = RunEcho(7100, 3, 8, &first);
  const EchoRun b = RunEcho(7100, 3, 8, &second);
  EXPECT_FALSE(a.table.empty());
  EXPECT_EQ(a.table, b.table);
  EXPECT_EQ(a.prometheus, b.prometheus);
}

TEST(ObsLatencyTest, PlantedSlowHandlerCrossesThresholdFastCallsDoNot) {
  // Calibrate the threshold from an unplanted run: anything between the
  // fast calls' max and max + the 50 ms planted delay separates the two
  // (under Berkeley costs a degree-2 call is itself tens of ms).
  LatencyAttributor baseline;
  RunEcho(7201, 2, 3, &baseline);
  ASSERT_GT(baseline.end_to_end_us().count(), 0u);
  const int64_t fast_max_ns =
      static_cast<int64_t>(baseline.end_to_end_us().max() * 1000.0);
  LatencyAttributor::Options options;
  options.slow_call_threshold_ns =
      fast_max_ns + Duration::Millis(25).nanos();
  LatencyAttributor attributor(options);
  World world(7200, SyscallCostModel::Berkeley42Bsd());
  attributor.Attach(&world.bus());
  EchoTroupe t = MakeEchoTroupe(&world, 2, Duration::Millis(50));
  sim::Host* client_host = world.AddHost("client");
  RpcProcess client(&world.network(), client_host, 8000);
  bool done = false;
  world.executor().Spawn(EchoLoop(&client, t.troupe, t.module, 3, &done));
  world.RunFor(Duration::Seconds(60));
  ASSERT_TRUE(done);

  std::vector<CallExemplar> slow = attributor.TakeSlowCalls();
  ASSERT_EQ(slow.size(), 3u);
  for (const CallExemplar& ex : slow) {
    EXPECT_GE(ex.timeline.end_to_end_ns(), options.slow_call_threshold_ns);
    // The planted delay must land in the handler-execution stage.
    EXPECT_GE(ex.timeline.StageNs(Stage::kServerExecute),
              Duration::Millis(50).nanos());
    EXPECT_FALSE(ex.events.empty());
  }
  // The queue drains: a second take is empty.
  EXPECT_TRUE(attributor.TakeSlowCalls().empty());
  EXPECT_NE(attributor.SlowCallReport().find("slowest "),
            std::string::npos);
  attributor.Detach();

  // Control: the same fast workload stays under the same threshold.
  LatencyAttributor fast(options);
  RunEcho(7201, 2, 3, &fast);
  EXPECT_EQ(fast.calls(), 3u);
  EXPECT_TRUE(fast.TakeSlowCalls().empty());
}

// ---------------------------------------------------- commit workload --

constexpr ProcedureNumber kNoopProc = 1;

Task<Status> NoopTxnBody(RpcProcess* process, ThreadId thread,
                         Troupe troupe, ModuleNumber module,
                         txn::TxnId txn) {
  marshal::Writer w;
  txn.Write(w);
  StatusOr<Bytes> r =
      co_await process->Call(thread, troupe, module, kNoopProc, w.Take());
  co_return r.status();
}

Task<void> RunOneTransaction(RpcProcess* process,
                             txn::CommitCoordinator* coordinator,
                             Troupe troupe, ModuleNumber module,
                             Status* out) {
  const ThreadId thread = process->NewRootThread();
  txn::TransactionBody body = [process, thread, troupe,
                               module](const txn::TxnId& txn) {
    return NoopTxnBody(process, thread, troupe, module, txn);
  };
  *out = co_await txn::RunTransaction(process, coordinator, thread, troupe,
                                      module, body);
}

TEST(ObsLatencyTest, CommitWorkloadConservesAndRecordsCommitWait) {
  LatencyAttributor::Options options;
  options.max_exemplars = 64;
  LatencyAttributor attributor(options);
  World world(7300, SyscallCostModel::Berkeley42Bsd());
  attributor.Attach(&world.bus());

  Troupe troupe;
  troupe.id = core::TroupeId{510};
  std::vector<std::unique_ptr<RpcProcess>> processes;
  std::vector<std::unique_ptr<txn::TransactionalServer>> servers;
  ModuleNumber module = 0;
  for (int i = 0; i < 2; ++i) {
    sim::Host* host = world.AddHost("srv" + std::to_string(i));
    auto process =
        std::make_unique<RpcProcess>(&world.network(), host, 9000);
    auto server =
        std::make_unique<txn::TransactionalServer>(process.get(), "noop");
    server->ExportProcedure(
        kNoopProc,
        [srv = server.get()](ServerCallContext&,
                             const Bytes& args) -> Task<StatusOr<Bytes>> {
          marshal::Reader r(args);
          const txn::TxnId txn = txn::TxnId::Read(r);
          srv->store().Begin(txn);
          co_return Bytes{};
        });
    module = server->module_number();
    process->SetTroupeId(troupe.id);
    troupe.members.push_back(process->module_address(module));
    processes.push_back(std::move(process));
    servers.push_back(std::move(server));
  }
  sim::Host* client_host = world.AddHost("client");
  RpcProcess client(&world.network(), client_host, 8000);
  txn::CommitCoordinator coordinator(&client);

  Status result(ErrorCode::kAborted, "not run");
  world.executor().Spawn(
      RunOneTransaction(&client, &coordinator, troupe, module, &result));
  world.RunFor(Duration::Seconds(60));
  ASSERT_TRUE(result.ok()) << result.ToString();

  EXPECT_GT(attributor.calls(), 0u);
  ExpectConservation(attributor);
  // The two-phase commit's vote -> decision wait was measured.
  EXPECT_GT(attributor.commit_wait_us().count(), 0u);
  attributor.Detach();
}

// -------------------------------------------------- broadcast workload --

Task<void> RunOneBroadcast(RpcProcess* client, Troupe troupe,
                           ModuleNumber module, Status* out) {
  *out = co_await txn::AtomicBroadcast(client, client->NewRootThread(),
                                       troupe, module, 1,
                                       BytesFromString("event-1"));
}

TEST(ObsLatencyTest, BroadcastWorkloadConservesAndRecordsBroadcastWait) {
  LatencyAttributor::Options options;
  options.max_exemplars = 64;
  LatencyAttributor attributor(options);
  World world(7400, SyscallCostModel::Berkeley42Bsd());
  attributor.Attach(&world.bus());

  Troupe troupe;
  troupe.id = core::TroupeId{520};
  std::vector<std::unique_ptr<RpcProcess>> processes;
  std::vector<std::unique_ptr<txn::OrderedBroadcastServer>> servers;
  ModuleNumber module = 0;
  for (int i = 0; i < 3; ++i) {
    sim::Host* host = world.AddHost("srv" + std::to_string(i));
    auto process =
        std::make_unique<RpcProcess>(&world.network(), host, 9000);
    auto server = std::make_unique<txn::OrderedBroadcastServer>(
        process.get(), "broadcast");
    module = server->module_number();
    process->SetTroupeId(troupe.id);
    troupe.members.push_back(process->module_address(module));
    processes.push_back(std::move(process));
    servers.push_back(std::move(server));
  }
  sim::Host* client_host = world.AddHost("client");
  RpcProcess client(&world.network(), client_host, 8000);

  Status result(ErrorCode::kAborted, "not run");
  world.executor().Spawn(RunOneBroadcast(&client, troupe, module, &result));
  world.RunFor(Duration::Seconds(60));
  ASSERT_TRUE(result.ok()) << result.ToString();
  for (auto& server : servers) {
    EXPECT_EQ(server->delivered_count(), 1u);
  }

  // Both phases (get_proposed_time, accept_time) are replicated calls.
  EXPECT_GE(attributor.calls(), 2u);
  ExpectConservation(attributor);
  // The propose -> first-delivery wait was measured.
  EXPECT_GT(attributor.broadcast_wait_us().count(), 0u);
  attributor.Detach();
}

}  // namespace
}  // namespace circus::obs
