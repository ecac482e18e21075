// Loopback integration: the full Circus stack — paired messages,
// replicated calls with unanimous collation, Ringmaster binding,
// reconfiguration with state transfer, and the troupe commit protocol —
// over real 127.0.0.1 UDP sockets, with zero changes to any protocol
// layer. The topology mirrors the binding/txn simulator tests; only the
// Runtime (and thus the clock and the wire) is different.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/binding/client.h"
#include "src/binding/ringmaster.h"
#include "src/core/process.h"
#include "src/marshal/marshal.h"
#include "src/net/fault_fabric.h"
#include "src/net/socket.h"
#include "src/obs/merge.h"
#include "src/obs/shard.h"
#include "src/obs/trace.h"
#include "src/obs/wire.h"
#include "src/rt/fault_control.h"
#include "src/rt/introspect.h"
#include "src/rt/node_config.h"
#include "src/rt/runtime.h"
#include "src/txn/commit.h"
#include "src/txn/store.h"

namespace circus::rt {
namespace {

using binding::BindingCache;
using binding::BindingClient;
using binding::RingmasterServer;
using core::ModuleAddress;
using core::ModuleNumber;
using core::ProcedureNumber;
using core::RpcProcess;
using core::ServerCallContext;
using core::ThreadId;
using core::Troupe;
using core::TroupeId;
using sim::Duration;
using sim::Task;
using txn::CommitCoordinator;
using txn::RunTransaction;
using txn::TransactionalServer;
using txn::TxnId;

// The Ringmaster's well-known port 17 is privileged on a real kernel, so
// the loopback testbed binds an ephemeral port and reads it back; the
// bootstrap Troupe carries the address either way (Section 6.3's
// "configured set of machines"). No test binds a fixed port inside the
// kernel's ephemeral range, where another process's socket may hold it.
struct RingmasterNode {
  std::unique_ptr<RpcProcess> process;
  std::unique_ptr<RingmasterServer> server;
  Troupe bootstrap;
};

RingmasterNode MakeRingmaster(Runtime* runtime) {
  RingmasterNode node;
  sim::Host* host = runtime->AddHost("ringmaster");
  node.process = std::make_unique<RpcProcess>(&runtime->fabric(), host, 0);
  node.server = std::make_unique<RingmasterServer>(node.process.get());
  node.bootstrap.id = binding::kRingmasterTroupeId;
  node.bootstrap.members.push_back(
      node.process->module_address(node.server->module_number()));
  node.server->BootstrapSelf(node.bootstrap);
  return node;
}

// A troupe member exporting the counter interface: procedure 0 returns
// ++counter, and the counter is the module state for get_state, so a
// joiner starts exactly where the incumbents are.
struct Member {
  std::unique_ptr<RpcProcess> process;
  std::unique_ptr<BindingClient> binding;
  std::unique_ptr<BindingCache> cache;
  ModuleNumber module = 0;
  int32_t counter = 0;
};

std::unique_ptr<Member> MakeMember(Runtime* runtime,
                                   const std::string& name,
                                   const Troupe& ringmaster,
                                   net::Port port = 0) {
  auto member = std::make_unique<Member>();
  sim::Host* host = runtime->AddHost(name);
  member->process =
      std::make_unique<RpcProcess>(&runtime->fabric(), host, port);
  member->binding =
      std::make_unique<BindingClient>(member->process.get(), ringmaster);
  member->cache = std::make_unique<BindingCache>(member->binding.get());
  member->process->SetClientTroupeResolver(member->cache->MakeResolver());
  member->module = member->process->ExportModule("counter");
  Member* raw = member.get();
  member->process->ExportProcedure(
      member->module, 0,
      [raw](ServerCallContext&, const Bytes&) -> Task<StatusOr<Bytes>> {
        marshal::Writer w;
        w.WriteI32(++raw->counter);
        co_return w.Take();
      });
  member->process->SetStateProvider(member->module, [raw] {
    marshal::Writer w;
    w.WriteI32(raw->counter);
    return w.Take();
  });
  return member;
}

TEST(RtLoopbackTest, ReplicatedCallAndReconfiguration) {
  Runtime runtime;
  RingmasterNode ring = MakeRingmaster(&runtime);

  std::vector<std::unique_ptr<Member>> members;
  Troupe troupe;
  for (int i = 0; i < 3; ++i) {
    members.push_back(
        MakeMember(&runtime, "member" + std::to_string(i), ring.bootstrap));
    troupe.members.push_back(
        members[i]->process->module_address(members[i]->module));
  }

  // Register the three-member troupe; registration does not propagate
  // the fresh ID (only membership changes do), so adopt it by hand as
  // the simulator tests do.
  bool registered = false;
  std::vector<RpcProcess*> troupe_procs = {members[0]->process.get(),
                                           members[1]->process.get(),
                                           members[2]->process.get()};
  members[0]->process->host()->Spawn(
      [](BindingClient* b, Troupe t, std::vector<RpcProcess*> procs,
         bool* done) -> Task<void> {
        StatusOr<TroupeId> id = co_await b->RegisterTroupe("counter", t);
        CIRCUS_CHECK_MSG(id.ok(), id.status().ToString().c_str());
        for (RpcProcess* p : procs) {
          p->SetTroupeId(*id);
        }
        *done = true;
      }(members[0]->binding.get(), troupe, troupe_procs, &registered));
  ASSERT_TRUE(runtime.RunUntil([&registered] { return registered; },
                               Duration::Seconds(30)));

  // A singleton client imports by name and makes replicated calls; the
  // unanimous collation means every member executed and agreed.
  sim::Host* client_host = runtime.AddHost("client");
  RpcProcess client(&runtime.fabric(), client_host, 0);
  BindingClient client_binding(&client, ring.bootstrap);
  BindingCache client_cache(&client_binding);
  client.SetClientTroupeResolver(client_cache.MakeResolver());

  std::vector<int32_t> results;
  bool calls_done = false;
  client_host->Spawn(
      [](RpcProcess* p, BindingCache* cache, int calls,
         std::vector<int32_t>* out, bool* done) -> Task<void> {
        const ThreadId thread = p->NewRootThread();
        const Bytes no_args;
        for (int i = 0; i < calls; ++i) {
          StatusOr<Bytes> r = co_await cache->CallByName(
              p, thread, "counter", /*procedure=*/0, no_args);
          CIRCUS_CHECK_MSG(r.ok(), r.status().ToString().c_str());
          marshal::Reader reader(*r);
          out->push_back(reader.ReadI32());
        }
        *done = true;
      }(&client, &client_cache, 2, &results, &calls_done));
  ASSERT_TRUE(runtime.RunUntil([&calls_done] { return calls_done; },
                               Duration::Seconds(30)));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], 1);
  EXPECT_EQ(results[1], 2);
  for (const auto& m : members) {
    EXPECT_EQ(m->counter, 2);  // every member executed every call
  }

  // Reconfiguration: a fourth member joins via the Section 6.4.1 recipe
  // (get_state from the incumbents, then add_troupe_member).
  members.push_back(MakeMember(&runtime, "member3", ring.bootstrap));
  Member* joiner = members.back().get();
  bool joined = false;
  joiner->process->host()->Spawn(
      [](Member* m, bool* done) -> Task<void> {
        Member* state_sink = m;
        // Hoisted: a capturing lambda must not become a std::function
        // inside the co_await statement (CLAUDE.md rule 1).
        std::function<void(const Bytes&)> accept_state =
            [state_sink](const Bytes& bytes) {
              marshal::Reader r(bytes);
              state_sink->counter = r.ReadI32();
            };
        Status s = co_await binding::JoinTroupe(
            m->process.get(), m->module, m->binding.get(), "counter",
            accept_state);
        CIRCUS_CHECK_MSG(s.ok(), s.ToString().c_str());
        *done = true;
      }(joiner, &joined));
  ASSERT_TRUE(runtime.RunUntil([&joined] { return joined; },
                               Duration::Seconds(30)));
  EXPECT_EQ(joiner->counter, 2);  // state transferred, not reset

  // The client's cached binding is now stale; CallByName hits
  // kStaleBinding, rebinds transparently, and the call reaches all four
  // members — including the joiner, which continues from the
  // transferred state.
  results.clear();
  calls_done = false;
  client_host->Spawn(
      [](RpcProcess* p, BindingCache* cache, int calls,
         std::vector<int32_t>* out, bool* done) -> Task<void> {
        const ThreadId thread = p->NewRootThread();
        const Bytes no_args;
        for (int i = 0; i < calls; ++i) {
          StatusOr<Bytes> r = co_await cache->CallByName(
              p, thread, "counter", /*procedure=*/0, no_args);
          CIRCUS_CHECK_MSG(r.ok(), r.status().ToString().c_str());
          marshal::Reader reader(*r);
          out->push_back(reader.ReadI32());
        }
        *done = true;
      }(&client, &client_cache, 1, &results, &calls_done));
  ASSERT_TRUE(runtime.RunUntil([&calls_done] { return calls_done; },
                               Duration::Seconds(30)));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 3);
  for (const auto& m : members) {
    EXPECT_EQ(m->counter, 3);
  }
}

// ------------------------------------------------------- troupe commit --

constexpr ProcedureNumber kPutProc = 1;
constexpr ProcedureNumber kAddProc = 2;

Bytes EncodeKeyValue(const TxnId& txn, const std::string& key,
                     int64_t value) {
  marshal::Writer w;
  txn.Write(w);
  w.WriteString(key);
  w.WriteI64(value);
  return w.Take();
}

void InstallAccountProcedures(TransactionalServer* server) {
  server->ExportProcedure(
      kPutProc,
      [server](ServerCallContext&,
               const Bytes& args) -> Task<StatusOr<Bytes>> {
        marshal::Reader r(args);
        const TxnId txn = TxnId::Read(r);
        const std::string key = r.ReadString();
        const int64_t value = r.ReadI64();
        server->store().Begin(txn);
        marshal::Writer w;
        w.WriteI64(value);
        Status s = co_await server->store().Put(txn, key, w.Take());
        if (!s.ok()) {
          co_return s;
        }
        co_return Bytes{};
      });
  server->ExportProcedure(
      kAddProc,
      [server](ServerCallContext&,
               const Bytes& args) -> Task<StatusOr<Bytes>> {
        marshal::Reader r(args);
        const TxnId txn = TxnId::Read(r);
        const std::string key = r.ReadString();
        const int64_t delta = r.ReadI64();
        server->store().Begin(txn);
        int64_t current = 0;
        StatusOr<Bytes> v = co_await server->store().Get(txn, key);
        if (v.ok()) {
          marshal::Reader vr(*v);
          current = vr.ReadI64();
        } else if (v.status().code() != ErrorCode::kNotFound) {
          co_return v.status();
        }
        marshal::Writer w;
        w.WriteI64(current + delta);
        Status s = co_await server->store().Put(txn, key, w.Take());
        if (!s.ok()) {
          co_return s;
        }
        marshal::Writer out;
        out.WriteI64(current + delta);
        co_return out.Take();
      });
}

// Transaction bodies are free coroutine functions taking state by value
// (the CLAUDE.md capturing-lambda-coroutine rule), adapted to
// TransactionBody by a plain lambda.
Task<Status> CallOnceBody(RpcProcess* process, ThreadId thread,
                          Troupe troupe, ModuleNumber module,
                          ProcedureNumber proc, std::string key,
                          int64_t value, TxnId txn) {
  StatusOr<Bytes> r = co_await process->Call(
      thread, troupe, module, proc, EncodeKeyValue(txn, key, value));
  co_return r.status();
}

txn::TransactionBody MakeCallOnceBody(RpcProcess* process, ThreadId thread,
                                      Troupe troupe, ModuleNumber module,
                                      ProcedureNumber proc, std::string key,
                                      int64_t value) {
  return [=](const TxnId& txn) {
    return CallOnceBody(process, thread, troupe, module, proc, key, value,
                        txn);
  };
}

Task<void> RunCommitDriver(RpcProcess* process,
                           CommitCoordinator* coordinator, Troupe troupe,
                           ModuleNumber module, Status* out, bool* done) {
  const ThreadId thread = process->NewRootThread();
  Status put = co_await RunTransaction(
      process, coordinator, thread, troupe, module,
      MakeCallOnceBody(process, thread, troupe, module, kPutProc,
                       "balance", 100));
  if (put.ok()) {
    *out = co_await RunTransaction(
        process, coordinator, thread, troupe, module,
        MakeCallOnceBody(process, thread, troupe, module, kAddProc,
                         "balance", 25));
  } else {
    *out = put;
  }
  *done = true;
}

TEST(RtLoopbackTest, TroupeCommitOverRealUdp) {
  Runtime runtime;
  RingmasterNode ring = MakeRingmaster(&runtime);

  // Three transactional members, registered as one troupe.
  std::vector<std::unique_ptr<RpcProcess>> processes;
  std::vector<std::unique_ptr<TransactionalServer>> servers;
  Troupe troupe;
  ModuleNumber module = 0;
  for (int i = 0; i < 3; ++i) {
    sim::Host* host = runtime.AddHost("account" + std::to_string(i));
    auto process =
        std::make_unique<RpcProcess>(&runtime.fabric(), host, 0);
    auto server =
        std::make_unique<TransactionalServer>(process.get(), "account");
    InstallAccountProcedures(server.get());
    module = server->module_number();
    troupe.members.push_back(process->module_address(module));
    processes.push_back(std::move(process));
    servers.push_back(std::move(server));
  }

  BindingClient registrar(processes[0].get(), ring.bootstrap);
  bool registered = false;
  TroupeId troupe_id;
  std::vector<RpcProcess*> troupe_procs = {
      processes[0].get(), processes[1].get(), processes[2].get()};
  processes[0]->host()->Spawn(
      [](BindingClient* b, Troupe t, std::vector<RpcProcess*> procs,
         TroupeId* out, bool* done) -> Task<void> {
        StatusOr<TroupeId> id = co_await b->RegisterTroupe("account", t);
        CIRCUS_CHECK_MSG(id.ok(), id.status().ToString().c_str());
        for (RpcProcess* p : procs) {
          p->SetTroupeId(*id);
        }
        *out = *id;
        *done = true;
      }(&registrar, troupe, troupe_procs, &troupe_id, &registered));
  ASSERT_TRUE(runtime.RunUntil([&registered] { return registered; },
                               Duration::Seconds(30)));
  troupe.id = troupe_id;

  sim::Host* client_host = runtime.AddHost("client");
  RpcProcess client(&runtime.fabric(), client_host, 0);
  CommitCoordinator coordinator(&client);

  Status result(ErrorCode::kAborted, "not run");
  bool done = false;
  client_host->Spawn(
      RunCommitDriver(&client, &coordinator, troupe, module, &result,
                      &done));
  ASSERT_TRUE(
      runtime.RunUntil([&done] { return done; }, Duration::Seconds(60)));
  ASSERT_TRUE(result.ok()) << result.ToString();
  for (auto& server : servers) {
    std::optional<Bytes> v = server->store().Peek("balance");
    ASSERT_TRUE(v.has_value());
    marshal::Reader r(*v);
    EXPECT_EQ(r.ReadI64(), 125);
    EXPECT_EQ(server->store().active_transactions(), 0u);
  }
}

// --------------------------------------------------- live observing ----

// A minimal direct-troupe node (no ringmaster): an echo member, or a
// client that calls it. Shared by the tracing and introspection tests.
std::unique_ptr<RpcProcess> MakeEchoProcess(net::Fabric* fabric,
                                            sim::Host* host,
                                            ModuleNumber* module) {
  auto process = std::make_unique<RpcProcess>(fabric, host, 0);
  *module = process->ExportModule("echo");
  process->ExportProcedure(
      *module, 0,
      [](ServerCallContext&, const Bytes& args) -> Task<StatusOr<Bytes>> {
        co_return Bytes(args);
      });
  return process;
}

Task<void> CallEchoOnce(RpcProcess* client, Troupe troupe,
                        ModuleNumber module, bool* done) {
  const ThreadId thread = client->NewRootThread();
  const Bytes args(16, 0x5A);
  StatusOr<Bytes> r =
      co_await client->Call(thread, troupe, module, 0, args);
  CIRCUS_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  *done = true;
}

// The acceptance scenario of the live-observability work: four nodes
// (client + three troupe members) each record their own trace shard —
// per-host filter and a distinct incarnation, exactly as four separate
// `circus node` processes would — one replicated call runs over real
// loopback UDP, and `circus merge`'s library joins the shards into
// a single timeline where the call is one root span whose execute
// children span every member.
TEST(RtLoopbackTest, TracedReplicatedCallMergesIntoOneSpanTree) {
  Runtime runtime;
  const std::string dir = testing::TempDir();

  Troupe troupe;
  troupe.id = TroupeId{7001};
  ModuleNumber module = 0;
  std::vector<std::unique_ptr<RpcProcess>> members;
  std::vector<sim::Host*> hosts;

  sim::Host* client_host = runtime.AddHost("client");
  hosts.push_back(client_host);
  RpcProcess client(&runtime.fabric(), client_host, 0);
  for (int i = 0; i < 3; ++i) {
    sim::Host* host = runtime.AddHost("member" + std::to_string(i));
    hosts.push_back(host);
    members.push_back(MakeEchoProcess(&runtime.fabric(), host, &module));
    members.back()->SetTroupeId(troupe.id);
    troupe.members.push_back(
        members.back()->module_address(module));
  }

  // One shard writer per node, as if each were its own process. Shard 0
  // (the client) is the merge's reference clock.
  const char* names[] = {"client", "member0", "member1", "member2"};
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<obs::ShardWriter>> writers;
  for (size_t k = 0; k < 4; ++k) {
    obs::ShardInfo info;
    info.node = names[k];
    info.role = k == 0 ? "client" : "member";
    info.address = (k == 0 ? client.process_address()
                           : members[k - 1]->process_address())
                       .ToString();
    info.incarnation = 1000 + k;  // distinct, as across real processes
    paths.push_back(dir + "/" + names[k] + ".trace.jsonl");
    writers.push_back(std::make_unique<obs::ShardWriter>(
        paths.back(), std::move(info)));
    ASSERT_TRUE(writers.back()->ok());
    writers.back()->Attach(&runtime.bus(), hosts[k]->id());
  }

  bool done = false;
  client_host->Spawn(CallEchoOnce(&client, troupe, module, &done));
  ASSERT_TRUE(
      runtime.RunUntil([&done] { return done; }, Duration::Seconds(30)));
  for (auto& writer : writers) {
    ASSERT_TRUE(writer->Flush().ok());
  }

  std::vector<obs::ShardFile> shards;
  for (const std::string& path : paths) {
    StatusOr<obs::ShardFile> shard = obs::ReadShardFile(path);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    EXPECT_FALSE(shard->events.empty()) << path;
    shards.push_back(*std::move(shard));
  }

  StatusOr<obs::MergeResult> merged = obs::MergeShards(shards);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(merged->aligned[k]) << "shard " << k << " unaligned";
    // All four nodes share one physical clock here, so the paired
    // exchange estimate must come out near zero — its error is bounded
    // by loopback scheduling jitter, far below a second.
    EXPECT_LT(std::llabs(merged->shift_ns[k]), 1'000'000'000ll);
  }

  // The replicated call reconstructs as ONE tree: a root call span on
  // the client's lane whose children are execute spans on three
  // *distinct* member lanes.
  const std::vector<obs::Span> roots = obs::AssembleSpans(merged->events);
  ASSERT_EQ(roots.size(), 1u) << obs::Render(roots);
  const obs::Span& call = roots[0];
  EXPECT_EQ(call.kind, obs::Span::Kind::kCall);
  EXPECT_EQ(call.host, 1u);  // shard 0 lane
  EXPECT_TRUE(call.ok);
  ASSERT_EQ(call.children.size(), 3u) << obs::Render(roots);
  std::set<uint32_t> member_lanes;
  for (const obs::Span& child : call.children) {
    EXPECT_EQ(child.kind, obs::Span::Kind::kExecute);
    EXPECT_GE(child.begin_ns, call.begin_ns);
    member_lanes.insert(child.host);
  }
  EXPECT_EQ(member_lanes, (std::set<uint32_t>{2, 3, 4}));
}

// NodeObservability without the datagram socket: HandleQuery is the
// exact reply a stats datagram gets (the socket path itself is driven
// end-to-end by scripts/check_realnet.sh against live `circus node`
// processes).
Task<void> CallEchoRepeatedly(RpcProcess* client, Troupe troupe,
                              ModuleNumber module, int calls, int* done) {
  const ThreadId thread = client->NewRootThread();
  const Bytes args(16, 0x5A);
  for (int i = 0; i < calls; ++i) {
    StatusOr<Bytes> r =
        co_await client->Call(thread, troupe, module, 0, args);
    CIRCUS_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    CIRCUS_CHECK(*r == args);
    ++*done;
  }
}

// Every wait of a call arms a timeout that the reply nearly always beats.
// A timeout that loses must leave the executor at once: the queue after
// 2000 sequential echoes is the queue after 20, and the IoLoop's timerfd
// neither fires nor re-arms once per call.
TEST(RtLoopbackTest, SequentialEchoesLeaveNoTimersBehind) {
  Runtime runtime;
  sim::Host* member_host = runtime.AddHost("member");
  ModuleNumber module = 0;
  std::unique_ptr<RpcProcess> member =
      MakeEchoProcess(&runtime.fabric(), member_host, &module);
  member->SetTroupeId(TroupeId{99});
  Troupe troupe;
  troupe.id = TroupeId{99};
  troupe.members.push_back(member->module_address(module));
  sim::Host* client_host = runtime.AddHost("client");
  RpcProcess client(&runtime.fabric(), client_host, 0);
  const auto run_echoes = [&](int calls) {
    int done = 0;
    client_host->Spawn(
        CallEchoRepeatedly(&client, troupe, module, calls, &done));
    return runtime.RunUntil([&done, calls] { return done == calls; },
                            Duration::Seconds(60));
  };

  ASSERT_TRUE(run_echoes(20));
  const size_t pending_after_warmup = runtime.executor().pending_events();
  const IoLoopStats warm = runtime.loop().stats();
  constexpr int kCalls = 2000;
  ASSERT_TRUE(run_echoes(kCalls));
  EXPECT_EQ(runtime.executor().pending_events(), pending_after_warmup);
  const IoLoopStats& stats = runtime.loop().stats();
  EXPECT_LE(stats.timer_fires - warm.timer_fires, kCalls / 100u);
  // Re-arming only for an earlier deadline or after a fire: a handful of
  // arms per retransmit interval, where arming every iteration made at
  // least one per call.
  EXPECT_LE(stats.timer_arms - warm.timer_arms, kCalls / 20u)
      << "wakeups " << stats.wakeups - warm.wakeups;
}

TEST(RtLoopbackTest, IntrospectionQueriesReportMetricsHealthAndSpans) {
  Runtime runtime;
  sim::Host* member_host = runtime.AddHost("member");
  NodeConfig cfg;
  cfg.role = NodeConfig::Role::kMember;
  cfg.listen = net::NetAddress{kLoopbackAddress, 29001};
  cfg.node_name = "observe-me";
  cfg.trace_dir = testing::TempDir();
  NodeObservability node_obs(&runtime, member_host, cfg);
  ASSERT_TRUE(node_obs.status().ok()) << node_obs.status().ToString();

  ModuleNumber module = 0;
  std::unique_ptr<RpcProcess> member =
      MakeEchoProcess(&runtime.fabric(), member_host, &module);
  member->SetTroupeId(TroupeId{99});
  node_obs.SetProcess(member.get());

  Troupe troupe;
  troupe.id = TroupeId{99};
  troupe.members.push_back(member->module_address(module));
  sim::Host* client_host = runtime.AddHost("client");
  RpcProcess client(&runtime.fabric(), client_host, 0);
  bool done = false;
  client_host->Spawn(CallEchoOnce(&client, troupe, module, &done));
  ASSERT_TRUE(
      runtime.RunUntil([&done] { return done; }, Duration::Seconds(30)));

  const std::string metrics = node_obs.HandleQuery("metrics");
  EXPECT_NE(metrics.find("circus_rt_loop_wakeups_total"),
            std::string::npos)
      << metrics;
  // Shard health leads the reply so drop counts survive truncation.
  EXPECT_EQ(metrics.rfind("# TYPE circus_shard_observed_total counter", 0),
            0u)
      << metrics;
  EXPECT_NE(metrics.find("circus_shard_dropped_total 0"), std::string::npos);
  EXPECT_NE(metrics.find("circus_shard_flushes_total"), std::string::npos);
  EXPECT_LE(metrics.size(), kMaxQueryReplyBytes);

  const std::string health = node_obs.HandleQuery(" health\n");
  EXPECT_EQ(health.rfind("ok observe-me\n", 0), 0u) << health;
  EXPECT_NE(health.find("role member\n"), std::string::npos);
  EXPECT_NE(health.find("troupe 99\n"), std::string::npos);
  // Graded load rides the health reply. The exact grade depends on how
  // busy this machine is, so only the line's presence is asserted.
  EXPECT_NE(health.find("\nload "), std::string::npos) << health;
  EXPECT_NE(health.find(" ok\n"), std::string::npos);  // the client peer,
                                                       // heard from just now

  // The util query serves the USE monitor's exposition; the node's own
  // probes are registered from construction.
  node_obs.SampleUtilization();
  const std::string util = node_obs.HandleQuery("util");
  EXPECT_EQ(util.rfind("# TYPE circus_util_busy_pct gauge", 0), 0u) << util;
  for (const char* resource :
       {"rt.loop", "cpu.process", "net.udp", "alloc.marshal", "msg.segment",
        "obs.shard"}) {
    EXPECT_NE(util.find("{resource=\"" + std::string(resource) + "\"}"),
              std::string::npos)
        << resource;
  }

  // The shard records every host in this single-process runtime, so the
  // member's spans view shows the whole call tree.
  const std::string spans = node_obs.HandleQuery("spans");
  EXPECT_NE(spans.find("call("), std::string::npos) << spans;
  EXPECT_NE(spans.find("exec("), std::string::npos) << spans;

  const std::string err = node_obs.HandleQuery("bogus");
  EXPECT_EQ(err.rfind("err unknown query", 0), 0u) << err;

  // FinalFlush leaves both on-disk artifacts a dead node is judged by:
  // the trace shard and the last metrics snapshot.
  node_obs.FinalFlush();
  ASSERT_TRUE(node_obs.status().ok()) << node_obs.status().ToString();
  StatusOr<obs::ShardFile> shard =
      obs::ReadShardFile(ShardPathFor(cfg));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ(shard->info.node, "observe-me");
  EXPECT_EQ(shard->info.incarnation, runtime.incarnation());
  EXPECT_FALSE(shard->events.empty());
  std::ifstream prom(MetricsPathFor(cfg));
  ASSERT_TRUE(prom.good());
  std::string first_line;
  std::getline(prom, first_line);
  EXPECT_EQ(first_line.rfind("# TYPE circus_", 0), 0u) << first_line;
  // Every bound socket's kernel receive-queue drops are exported.
  const std::string rest(std::istreambuf_iterator<char>(prom), {});
  EXPECT_NE(rest.find("\ncircus_rt_socket_kernel_drops_total 0\n"),
            std::string::npos)
      << rest;
}

// The paged query forms: a spans text too big for one datagram comes
// back in "chunk <offset> <next>" pieces that reassemble byte-exactly,
// while the bare forms stay as they were (truncated with a marker).
TEST(RtLoopbackTest, PagedIntrospectionReassemblesOversizeSpansReply) {
  Runtime runtime;
  sim::Host* member_host = runtime.AddHost("member");
  NodeConfig cfg;
  cfg.role = NodeConfig::Role::kMember;
  cfg.listen = net::NetAddress{kLoopbackAddress, 29002};
  cfg.node_name = "pager";
  NodeObservability node_obs(&runtime, member_host, cfg);
  ASSERT_TRUE(node_obs.status().ok()) << node_obs.status().ToString();

  ModuleNumber module = 0;
  std::unique_ptr<RpcProcess> member =
      MakeEchoProcess(&runtime.fabric(), member_host, &module);
  member->SetTroupeId(TroupeId{99});
  node_obs.SetProcess(member.get());
  Troupe troupe;
  troupe.id = TroupeId{99};
  troupe.members.push_back(member->module_address(module));
  sim::Host* client_host = runtime.AddHost("client");
  RpcProcess client(&runtime.fabric(), client_host, 0);
  // Enough call trees that the rendered span forest needs several
  // datagrams.
  for (int i = 0; i < 40; ++i) {
    bool done = false;
    client_host->Spawn(CallEchoOnce(&client, troupe, module, &done));
    ASSERT_TRUE(
        runtime.RunUntil([&done] { return done; }, Duration::Seconds(30)));
  }

  // The bare form still fits one datagram, by truncation.
  const std::string bare = node_obs.HandleQuery("spans");
  ASSERT_LE(bare.size(), kMaxQueryReplyBytes);
  constexpr std::string_view kMark = "...\n";
  ASSERT_TRUE(bare.ends_with(kMark)) << "spans text unexpectedly small";

  // Page through the full text, reply by reply.
  std::string assembled;
  size_t offset = 0;
  bool saw_end = false;
  for (int guard = 0; guard < 100 && !saw_end; ++guard) {
    const std::string reply =
        node_obs.HandleQuery("spans " + std::to_string(offset));
    ASSERT_LE(reply.size(), kMaxQueryReplyBytes);
    ASSERT_EQ(reply.rfind("chunk ", 0), 0u) << reply;
    const size_t eol = reply.find('\n');
    ASSERT_NE(eol, std::string::npos);
    std::istringstream header(reply.substr(6, eol - 6));
    size_t echoed_offset = 0;
    std::string next;
    header >> echoed_offset >> next;
    ASSERT_EQ(echoed_offset, offset);
    assembled += reply.substr(eol + 1);
    if (next == "end") {
      saw_end = true;
    } else {
      offset = std::stoul(next);
      ASSERT_EQ(offset, assembled.size());
    }
  }
  ASSERT_TRUE(saw_end);
  // Genuinely multi-datagram, and the truncated bare reply is a byte
  // prefix of the reassembled whole.
  EXPECT_GT(assembled.size(), kMaxQueryReplyBytes);
  const std::string prefix = bare.substr(0, bare.size() - kMark.size());
  ASSERT_EQ(assembled.compare(0, prefix.size(), prefix), 0);
  EXPECT_NE(assembled.find("call("), std::string::npos);

  // Metrics also outgrow one datagram now that histograms carry
  // cumulative bucket series; page them back together and check the
  // reassembly is the full exposition, buckets included.
  std::string metrics_assembled;
  offset = 0;
  saw_end = false;
  for (int guard = 0; guard < 100 && !saw_end; ++guard) {
    const std::string reply =
        node_obs.HandleQuery("metrics " + std::to_string(offset));
    ASSERT_LE(reply.size(), kMaxQueryReplyBytes);
    ASSERT_EQ(reply.rfind("chunk ", 0), 0u) << reply;
    const size_t eol = reply.find('\n');
    ASSERT_NE(eol, std::string::npos);
    std::istringstream header(reply.substr(6, eol - 6));
    size_t echoed_offset = 0;
    std::string next;
    header >> echoed_offset >> next;
    ASSERT_EQ(echoed_offset, offset);
    metrics_assembled += reply.substr(eol + 1);
    if (next == "end") {
      saw_end = true;
    } else {
      offset = std::stoul(next);
    }
  }
  ASSERT_TRUE(saw_end);
  EXPECT_NE(metrics_assembled.find("_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(metrics_assembled.find("quantile=\"0.99\""), std::string::npos);
  // The truncated bare form is a byte prefix of the reassembled whole.
  const std::string bare_metrics = node_obs.HandleQuery("metrics");
  ASSERT_LE(bare_metrics.size(), kMaxQueryReplyBytes);
  const std::string metrics_prefix =
      bare_metrics.ends_with(kMark)
          ? bare_metrics.substr(0, bare_metrics.size() - kMark.size())
          : bare_metrics;
  ASSERT_EQ(
      metrics_assembled.compare(0, metrics_prefix.size(), metrics_prefix),
      0);

  // The latency query serves the attributor's exposition through the
  // same bare/paged machinery.
  const std::string latency = node_obs.HandleQuery("latency");
  ASSERT_LE(latency.size(), kMaxQueryReplyBytes);
  EXPECT_EQ(latency.rfind("# TYPE circus_latency_stage_us summary", 0), 0u)
      << latency;
  EXPECT_EQ(node_obs.HandleQuery("latency 0").rfind("chunk 0 ", 0), 0u);

  // Offsets past the end terminate; garbage offsets are an error.
  const std::string past =
      node_obs.HandleQuery("spans " + std::to_string(assembled.size() + 999));
  EXPECT_EQ(past, "chunk " + std::to_string(assembled.size()) + " end\n");
  EXPECT_EQ(node_obs.HandleQuery("spans x").rfind("err bad offset", 0), 0u);
  EXPECT_EQ(node_obs.HandleQuery("util x").rfind("err bad offset", 0), 0u);
}

// ---------------------------------------- paged offsets past the end ----

// One stats query over a real datagram: send, wait, copy the reply out.
Task<void> QueryStatsOnce(net::DatagramSocket* socket, net::NetAddress to,
                          std::string query, std::string* reply,
                          bool* done) {
  Bytes payload(query.begin(), query.end());
  Status sent = co_await socket->Send(to, std::move(payload));
  CIRCUS_CHECK_MSG(sent.ok(), sent.ToString().c_str());
  net::Datagram response = co_await socket->Receive();
  reply->assign(response.payload.begin(), response.payload.end());
  *done = true;
}

// Every paged query form must terminate cleanly when the client asks
// for an offset past the end of the text: a bare "chunk <size> end"
// header with an empty body, never an error and never a stall. Driven
// over real datagrams, with the querying socket on either fabric a
// deployment can interpose: the raw UDP fabric or the fault-injection
// wrapper around it.
class PagedPastEndTest : public testing::TestWithParam<bool> {};

TEST_P(PagedPastEndTest, OffsetsPastEndOfDataTerminateWithEmptyChunk) {
  const bool through_fault_fabric = GetParam();
  Runtime runtime;
  sim::Host* node_host = runtime.AddHost("node");
  NodeConfig cfg;
  cfg.role = NodeConfig::Role::kMember;
  cfg.listen = net::NetAddress{kLoopbackAddress, 29050};
  cfg.node_name = "pastend";
  cfg.stats_port = through_fault_fabric ? 29052 : 29051;
  NodeObservability node_obs(&runtime, node_host, cfg);
  ASSERT_TRUE(node_obs.status().ok()) << node_obs.status().ToString();

  ModuleNumber module = 0;
  std::unique_ptr<RpcProcess> member =
      MakeEchoProcess(&runtime.fabric(), node_host, &module);
  member->SetTroupeId(TroupeId{99});
  node_obs.SetProcess(member.get());
  Troupe troupe;
  troupe.id = TroupeId{99};
  troupe.members.push_back(member->module_address(module));
  sim::Host* client_host = runtime.AddHost("client");
  RpcProcess client(&runtime.fabric(), client_host, 0);
  bool called = false;
  client_host->Spawn(CallEchoOnce(&client, troupe, module, &called));
  ASSERT_TRUE(
      runtime.RunUntil([&called] { return called; }, Duration::Seconds(30)));

  net::FaultFabric fault_fabric(&runtime.fabric(), &runtime.executor(), 7);
  net::Fabric* query_fabric =
      through_fault_fabric ? static_cast<net::Fabric*>(&fault_fabric)
                           : &runtime.fabric();
  StatusOr<std::unique_ptr<net::DatagramSocket>> socket =
      net::DatagramSocket::Open(query_fabric, client_host, 0);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  const net::NetAddress stats_addr{kLoopbackAddress, cfg.stats_port};

  const auto ask = [&](const std::string& query, std::string* reply) {
    bool done = false;
    client_host->Spawn(
        QueryStatsOnce(socket->get(), stats_addr, query, reply, &done));
    return runtime.RunUntil([&done] { return done; },
                            Duration::Seconds(10));
  };

  for (const std::string query : {"metrics", "spans", "util"}) {
    SCOPED_TRACE(query);
    // Anything at or past the text size clamps to "empty final chunk".
    std::string reply;
    ASSERT_TRUE(ask(query + " 99999999", &reply));
    ASSERT_EQ(reply.rfind("chunk ", 0), 0u) << reply;
    const size_t eol = reply.find('\n');
    ASSERT_NE(eol, std::string::npos) << reply;
    EXPECT_EQ(eol + 1, reply.size()) << "past-end chunk has a body: "
                                     << reply;
    size_t clamped = 0;
    char next[16] = {0};
    ASSERT_EQ(std::sscanf(reply.c_str(), "chunk %zu %15s", &clamped, next),
              2)
        << reply;
    EXPECT_STREQ(next, "end") << reply;
    EXPECT_GT(clamped, 0u) << query << " text is empty";

    // Re-asking at the clamped offset is well-framed too. (The reply
    // may carry a body now: serving the first query itself advanced
    // live counters, so the text can have grown past the old end.)
    std::string again;
    ASSERT_TRUE(ask(query + " " + std::to_string(clamped), &again));
    EXPECT_EQ(again.rfind("chunk " + std::to_string(clamped) + " ", 0), 0u)
        << again;
  }

  // The util text itself is live on the datagram path too.
  std::string util;
  ASSERT_TRUE(ask("util", &util));
  EXPECT_EQ(util.rfind("# TYPE circus_util_busy_pct gauge", 0), 0u) << util;
  EXPECT_NE(util.find("{resource=\"rt.loop\"}"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Fabrics, PagedPastEndTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& param) {
                           return param.param ? "FaultFabric" : "UdpFabric";
                         });

// ------------------------------------------- messages over the limit ----

// A message larger than one loopback datagram travels as several 32 KiB
// segments over real sockets: once clean, and once through a fault
// fabric that drops datagrams, so the retransmit and reassembly paths
// run on the real runtime. The echo comes back byte-equal and the wire
// audit of both runs is clean.
class LargeMessageTest : public testing::TestWithParam<bool> {};

Task<void> EchoLarge(RpcProcess* client, Troupe troupe, ModuleNumber module,
                     Bytes args, StatusOr<Bytes>* out, bool* done) {
  *out = co_await client->Call(client->NewRootThread(), troupe, module, 0,
                               args);
  *done = true;
}

TEST_P(LargeMessageTest, EchoesAcrossSeveralFabricSizedSegments) {
  const bool lossy = GetParam();
  Runtime runtime;
  net::FaultFabric fault_fabric(&runtime.fabric(), &runtime.executor(), 11);
  if (lossy) {
    net::FaultInjectionPlan plan;
    plan.drop = 0.2;
    fault_fabric.set_plan(plan);
  }
  net::Fabric* fabric = lossy ? static_cast<net::Fabric*>(&fault_fabric)
                              : &runtime.fabric();

  sim::Host* member_host = runtime.AddHost("member");
  ModuleNumber module = 0;
  std::unique_ptr<RpcProcess> member =
      MakeEchoProcess(fabric, member_host, &module);
  member->SetTroupeId(TroupeId{99});
  Troupe troupe;
  troupe.id = TroupeId{99};
  troupe.members.push_back(member->module_address(module));
  sim::Host* client_host = runtime.AddHost("client");
  RpcProcess client(fabric, client_host, 0);
  ASSERT_EQ(client.endpoint().options().segment_data_bytes, 32768u);

  obs::wire::WireAuditor auditor(
      obs::wire::AuditOptionsFor(client.endpoint().options()));
  auditor.Attach(&runtime.bus());

  Bytes args(100 * 1024);
  for (size_t i = 0; i < args.size(); ++i) {
    args[i] = static_cast<uint8_t>(i * 31 % 251);
  }
  StatusOr<Bytes> reply = Status(ErrorCode::kUnavailable, "not run");
  bool done = false;
  client_host->Spawn(
      EchoLarge(&client, troupe, module, args, &reply, &done));
  ASSERT_TRUE(
      runtime.RunUntil([&done] { return done; }, Duration::Seconds(60)));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(*reply == args);
  // 100 KiB plus the call header: four segments each way.
  EXPECT_EQ(client.endpoint().counters().data_segments_sent -
                client.endpoint().counters().retransmitted_segments,
            4u);
  if (lossy) {
    EXPECT_GT(fault_fabric.stats().dropped, 0u);
    EXPECT_GT(client.endpoint().counters().retransmitted_segments +
                  member->endpoint().counters().retransmitted_segments,
              0u);
  }

  const obs::wire::AuditReport report = auditor.Finish();
  EXPECT_TRUE(report.violations.empty()) << report.Render();
  EXPECT_GE(report.CompletedCalls(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Fabrics, LargeMessageTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& param) {
                           return param.param ? "LossyFaultFabric"
                                              : "UdpFabric";
                         });

// -------------------------------------------------- crash and reboot ----

// The `circus node` crash-recovery path, in-process: a member is killed
// without a goodbye (host crash + socket teardown, which is all SIGKILL
// leaves behind) and a new process reboots on the SAME port. Its peers
// — ringmaster and the surviving member — still hold duplicate-
// suppression state keyed by that address, so the reboot only works
// because call numbers are clock-seeded per process: the reborn
// process's registry calls and get_state must not be swallowed as
// retransmissions of its predecessor's.
TEST(RtLoopbackTest, RebootedMemberRejoinsDespitePeerDuplicateSuppression) {
  Runtime runtime;
  RingmasterNode ring = MakeRingmaster(&runtime);

  std::vector<std::unique_ptr<Member>> members;
  Troupe troupe;
  for (int i = 0; i < 2; ++i) {
    members.push_back(
        MakeMember(&runtime, "member" + std::to_string(i), ring.bootstrap));
    troupe.members.push_back(
        members[i]->process->module_address(members[i]->module));
  }
  bool registered = false;
  std::vector<RpcProcess*> troupe_procs = {members[0]->process.get(),
                                           members[1]->process.get()};
  members[0]->process->host()->Spawn(
      [](BindingClient* b, Troupe t, std::vector<RpcProcess*> procs,
         bool* done) -> Task<void> {
        StatusOr<TroupeId> id = co_await b->RegisterTroupe("counter", t);
        CIRCUS_CHECK_MSG(id.ok(), id.status().ToString().c_str());
        for (RpcProcess* p : procs) {
          p->SetTroupeId(*id);
        }
        *done = true;
      }(members[0]->binding.get(), troupe, troupe_procs, &registered));
  ASSERT_TRUE(runtime.RunUntil([&registered] { return registered; },
                               Duration::Seconds(30)));

  sim::Host* client_host = runtime.AddHost("client");
  RpcProcess client(&runtime.fabric(), client_host, 0);
  BindingClient client_binding(&client, ring.bootstrap);
  BindingCache client_cache(&client_binding);
  client.SetClientTroupeResolver(client_cache.MakeResolver());
  const auto call_counter = [&](int32_t* out) {
    bool done = false;
    client_host->Spawn(
        [](RpcProcess* p, BindingCache* cache, int32_t* value,
           bool* flag) -> Task<void> {
          StatusOr<Bytes> r = co_await cache->CallByName(
              p, p->NewRootThread(), "counter", /*procedure=*/0, {});
          CIRCUS_CHECK_MSG(r.ok(), r.status().ToString().c_str());
          marshal::Reader reader(*r);
          *value = reader.ReadI32();
          *flag = true;
        }(&client, &client_cache, out, &done));
    return runtime.RunUntil([&done] { return done; },
                            Duration::Seconds(30));
  };

  int32_t value = 0;
  ASSERT_TRUE(call_counter(&value));
  EXPECT_EQ(value, 1);  // both members executed

  // Mid-commit SIGKILL equivalent: crash member1's host so every
  // protocol coroutine on it dies with HostCrashedError, drain the
  // loop, then drop the process — its sockets close with no wire
  // goodbye, exactly like a killed OS process.
  const core::ModuleAddress stale_address =
      members[1]->process->module_address(members[1]->module);
  members[1]->process->host()->Crash();
  runtime.RunUntil([] { return false; }, Duration::Millis(200));
  members[1].reset();

  // Reboot on the same port under a fresh host (a fresh incarnation).
  members[1] = MakeMember(&runtime, "member1b", ring.bootstrap,
                          stale_address.process.port);
  Member* reborn = members[1].get();
  bool rejoined = false;
  reborn->process->host()->Spawn(
      [](Member* m, core::ModuleAddress stale, bool* done) -> Task<void> {
        // The `circus node` member recipe: evict the dead predecessor's
        // registration (same address, so peers would otherwise copy
        // state from a registered-but-reborn-empty replica), then join.
        StatusOr<TroupeId> evicted =
            co_await m->binding->RemoveTroupeMember("counter", stale);
        CIRCUS_CHECK_MSG(evicted.ok(), evicted.status().ToString().c_str());
        Member* state_sink = m;
        std::function<void(const Bytes&)> accept_state =
            [state_sink](const Bytes& bytes) {
              marshal::Reader r(bytes);
              state_sink->counter = r.ReadI32();
            };
        Status s = co_await binding::JoinTroupe(
            m->process.get(), m->module, m->binding.get(), "counter",
            accept_state);
        CIRCUS_CHECK_MSG(s.ok(), s.ToString().c_str());
        *done = true;
      }(reborn, stale_address, &rejoined));
  ASSERT_TRUE(runtime.RunUntil([&rejoined] { return rejoined; },
                               Duration::Seconds(30)));
  EXPECT_EQ(reborn->counter, 1);  // state transferred from the survivor

  // The next replicated call transparently rebinds (membership changed
  // twice) and reaches BOTH members — the reborn one included, whose
  // fresh clock-seeded call numbers nobody mistook for duplicates.
  ASSERT_TRUE(call_counter(&value));
  EXPECT_EQ(value, 2);
  EXPECT_EQ(members[0]->counter, 2);
  EXPECT_EQ(reborn->counter, 2);
}

// ------------------------------------------------------ bind conflicts --

// A stats_port collision must surface as a sticky, inspectable error —
// `circus node` turns it into a one-line fatal (fail fast beats a silent
// unobservable node).
TEST(RtLoopbackTest, StatsPortBindConflictSurfacesFatalStatus) {
  Runtime runtime;
  sim::Host* host = runtime.AddHost("node");
  net::DatagramSocket squatter(&runtime.fabric(), host, 0);
  NodeConfig cfg;
  cfg.role = NodeConfig::Role::kMember;
  cfg.listen = net::NetAddress{kLoopbackAddress, 29010};
  cfg.node_name = "conflict";
  cfg.stats_port = squatter.local_address().port;
  NodeObservability node_obs(&runtime, host, cfg);
  EXPECT_FALSE(node_obs.stats_status().ok());
  EXPECT_EQ(node_obs.stats_status().code(), ErrorCode::kAlreadyExists);
  EXPECT_FALSE(node_obs.status().ok());

  // No conflict: stats_status is kOk even with the endpoint disabled.
  NodeConfig quiet = cfg;
  quiet.stats_port = 0;
  quiet.node_name = "quiet";
  NodeObservability quiet_obs(&runtime, host, quiet);
  EXPECT_TRUE(quiet_obs.stats_status().ok());
}

TEST(RtLoopbackTest, FaultControlCommandsAndBindConflict) {
  Runtime runtime;
  sim::Host* host = runtime.AddHost("node");
  net::FaultFabric fabric(&runtime.fabric(), &runtime.executor(), 7);

  StatusOr<std::unique_ptr<FaultControl>> control =
      FaultControl::Open(&runtime, host, &fabric, 0);
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  const net::Port control_port = (*control)->local_address().port;
  EXPECT_NE(control_port, 0);

  // Command dispatch is the exact reply a control datagram gets.
  EXPECT_EQ((*control)->HandleCommand("loss 0.5"), "ok\n");
  EXPECT_DOUBLE_EQ(fabric.plan().drop, 0.5);
  const std::string status_line = (*control)->HandleCommand("status");
  EXPECT_NE(status_line.find("loss"), std::string::npos) << status_line;
  EXPECT_EQ(status_line.back(), '\n');
  EXPECT_EQ((*control)->HandleCommand("bogus").rfind("err ", 0), 0u);
  EXPECT_EQ((*control)->HandleCommand("loss 7").rfind("err ", 0), 0u);

  // One control endpoint per port: the second Open is the faults_port
  // bind conflict `circus node` fails fast on.
  StatusOr<std::unique_ptr<FaultControl>> conflict =
      FaultControl::Open(&runtime, host, &fabric, control_port);
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), ErrorCode::kAlreadyExists);
}

// The trace shard is the node's one on-disk observation: the old
// separate packet-capture directory key is gone, so a config that still
// sets it is rejected like any other typo rather than silently ignored.
TEST(NodeConfigTest, RemovedCaptureDirectoryKeyIsUnknown) {
  const std::string base =
      "role = ringmaster\nlisten = 127.0.0.1:29030\ntrace_dir = x\n";
  ASSERT_TRUE(ParseNodeConfig(base).ok());
  const std::string key = std::string("tap") + "_dir";
  StatusOr<NodeConfig> parsed = ParseNodeConfig(base + key + " = x\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unknown key '" + key + "'"),
            std::string::npos)
      << parsed.status().ToString();
}

}  // namespace
}  // namespace circus::rt
