#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/collator.h"
#include "src/core/process.h"
#include "src/core/types.h"
#include "src/core/wire.h"
#include "src/marshal/marshal.h"
#include "src/msg/segment.h"
#include "src/net/world.h"
#include "tests/test_util.h"

namespace circus::core {
namespace {

using net::World;
using sim::Duration;
using sim::SyscallCostModel;
using sim::Task;

class CoreTest : public ::testing::Test {
 protected:
  CoreTest() : world_(21, SyscallCostModel::Free()) {}

  struct TroupeSetup {
    Troupe troupe;
    std::vector<std::unique_ptr<RpcProcess>> processes;
    ModuleNumber module = 0;
    std::vector<int> executions;  // per member
  };

  // Builds a troupe of `n` echo servers on fresh hosts. Each member
  // counts its executions. `reply_suffix_per_member` makes members
  // deliberately nondeterministic (for collator tests); `delay_ms` gives
  // each member i a reply delay of delay_ms[i].
  std::unique_ptr<TroupeSetup> MakeEchoTroupe(
      int n, uint64_t troupe_id, RpcOptions opts = {},
      bool reply_suffix_per_member = false,
      std::vector<int> delay_ms = {}) {
    auto setup = std::make_unique<TroupeSetup>();
    setup->executions.resize(n, 0);
    setup->troupe.id = TroupeId{troupe_id};
    for (int i = 0; i < n; ++i) {
      sim::Host* host = world_.AddHost("srv" + std::to_string(i));
      auto process = std::make_unique<RpcProcess>(&world_.network(), host,
                                                  9000, opts);
      const ModuleNumber m = process->ExportModule("echo");
      setup->module = m;
      const int member_index = i;
      const Duration delay =
          delay_ms.empty() ? Duration::Zero()
                           : Duration::Millis(delay_ms[i]);
      int* exec_counter = &setup->executions[i];
      process->ExportProcedure(
          m, 0,
          [member_index, delay, exec_counter, reply_suffix_per_member](
              ServerCallContext& ctx,
              const Bytes& args) -> Task<StatusOr<Bytes>> {
            ++*exec_counter;
            if (delay > Duration::Zero()) {
              co_await ctx.process->host()->SleepFor(delay);
            }
            Bytes out = args;
            if (reply_suffix_per_member) {
              out.push_back(static_cast<uint8_t>('0' + member_index));
            }
            co_return out;
          });
      process->SetTroupeId(setup->troupe.id);
      process->SetClientTroupeResolver(MakeResolver());
      setup->troupe.members.push_back(process->module_address(m));
      setup->processes.push_back(std::move(process));
    }
    directory_[setup->troupe.id] = setup->troupe;
    return setup;
  }

  RpcProcess::TroupeResolver MakeResolver() {
    return [this](TroupeId id) -> Task<StatusOr<Troupe>> {
      auto it = directory_.find(id);
      if (it == directory_.end()) {
        co_return Status(ErrorCode::kNotFound, "unknown troupe");
      }
      co_return it->second;
    };
  }

  std::unique_ptr<RpcProcess> MakeClient(const std::string& name,
                                         RpcOptions opts = {}) {
    sim::Host* host = world_.AddHost(name);
    auto p = std::make_unique<RpcProcess>(&world_.network(), host, 8000,
                                          opts);
    p->SetClientTroupeResolver(MakeResolver());
    return p;
  }

  // Runs a single replicated call to completion and returns the result.
  StatusOr<Bytes> DoCall(RpcProcess* client, const Troupe& troupe,
                         ModuleNumber module, ProcedureNumber proc,
                         Bytes args, CallOptions opts = {},
                         Duration budget = Duration::Seconds(30)) {
    auto result = std::make_shared<std::optional<StatusOr<Bytes>>>();
    world_.executor().Spawn(
        [](RpcProcess* c, Troupe t, ModuleNumber m, ProcedureNumber p,
           Bytes a, CallOptions o,
           std::shared_ptr<std::optional<StatusOr<Bytes>>> out)
            -> Task<void> {
          ThreadId thread = c->NewRootThread();
          out->emplace(co_await c->Call(thread, t, m, p, std::move(a), o));
        }(client, troupe, module, proc, std::move(args), opts, result));
    world_.RunFor(budget);
    if (!result->has_value()) {
      return Status(ErrorCode::kTimeout, "call did not finish in budget");
    }
    return std::move(**result);
  }

  World world_;
  std::map<TroupeId, Troupe> directory_;
};

TEST_F(CoreTest, UnreplicatedCallRoundTrip) {
  auto setup = MakeEchoTroupe(1, 0);
  setup->troupe.id = TroupeId{};  // direct, binding-free call
  auto client = MakeClient("client");
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("hello"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(StringFromBytes(*r), "hello");
  EXPECT_EQ(setup->executions[0], 1);
}

TEST_F(CoreTest, OneToManyExecutesExactlyOnceAtEachMember) {
  auto setup = MakeEchoTroupe(3, 100);
  auto client = MakeClient("client");
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("replicate me"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(StringFromBytes(*r), "replicate me");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(setup->executions[i], 1) << "member " << i;
  }
}

TEST_F(CoreTest, ExactlyOnceSurvivesDuplicatedNetwork) {
  net::FaultPlan plan;
  plan.duplicate_probability = 0.5;
  world_.network().set_default_fault_plan(plan);
  auto setup = MakeEchoTroupe(3, 101);
  auto client = MakeClient("client");
  for (int call = 0; call < 5; ++call) {
    StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module,
                               0, BytesFromString("dup"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(setup->executions[i], 5) << "member " << i;
  }
}

TEST_F(CoreTest, ExactlyOnceSurvivesLossyNetwork) {
  world_.network().set_default_fault_plan(net::FaultPlan::Lossy(0.2));
  auto setup = MakeEchoTroupe(3, 102);
  auto client = MakeClient("client");
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("lossy"), {},
                             Duration::Seconds(120));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(setup->executions[i], 1) << "member " << i;
  }
}

TEST_F(CoreTest, UnanimousCollatorDetectsDisagreement) {
  auto setup = MakeEchoTroupe(3, 103, {}, /*reply_suffix_per_member=*/true);
  auto client = MakeClient("client");
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDisagreement);
}

TEST_F(CoreTest, FirstComeCollatorTakesFastestMember) {
  auto setup = MakeEchoTroupe(3, 104, {}, /*reply_suffix_per_member=*/true,
                              /*delay_ms=*/{300, 5, 100});
  auto client = MakeClient("client");
  CallOptions opts;
  opts.collation = Collation::kFirstCome;
  const sim::TimePoint start = world_.now();
  std::string value;
  double elapsed_ms = -1;
  world_.executor().Spawn(
      [](RpcProcess* c, Troupe t, ModuleNumber m, CallOptions o,
         sim::TimePoint t0, std::string* out,
         double* out_elapsed) -> Task<void> {
        ThreadId thread = c->NewRootThread();
        StatusOr<Bytes> r =
            co_await c->Call(thread, t, m, 0, BytesFromString("x"), o);
        CIRCUS_CHECK(r.ok());
        *out = StringFromBytes(*r);
        *out_elapsed = (c->host()->executor().now() - t0).ToMillisF();
      }(client.get(), setup->troupe, setup->module, opts, start, &value,
        &elapsed_ms));
  world_.RunFor(Duration::Seconds(30));
  // Member 1 (5ms) wins; the call does not wait for the 300ms member.
  EXPECT_EQ(value, "x1");
  EXPECT_GE(elapsed_ms, 0.0);
  EXPECT_LT(elapsed_ms, 290.0);
}

TEST_F(CoreTest, MajorityCollatorOutvotesOneBadMember) {
  // Members 0 and 2 reply identically; member 1 appends its index.
  auto setup = MakeEchoTroupe(3, 105);
  auto client = MakeClient("client");
  setup->processes[1]->ExportProcedure(
      setup->module, 0,
      [](ServerCallContext&, const Bytes& args) -> Task<StatusOr<Bytes>> {
        Bytes out = args;
        out.push_back('!');
        co_return out;  // the dissenting replica
      });
  CallOptions opts;
  opts.collation = Collation::kMajority;
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("vote"), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(StringFromBytes(*r), "vote");
}

TEST_F(CoreTest, MajorityCollatorFailsWhenAllDisagree) {
  auto setup = MakeEchoTroupe(3, 106, {}, /*reply_suffix_per_member=*/true);
  auto client = MakeClient("client");
  CallOptions opts;
  opts.collation = Collation::kMajority;
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("v"), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNoMajority);
}

TEST_F(CoreTest, CustomCollatorAveragesReplies) {
  // Explicit replication (Section 7.4): an application-specific collator
  // averaging a value each member reports, e.g. for clock
  // synchronization algorithms.
  auto setup = MakeEchoTroupe(3, 107);
  for (int i = 0; i < 3; ++i) {
    const int32_t reading = 100 + 10 * i;  // 100, 110, 120
    setup->processes[i]->ExportProcedure(
        setup->module, 1,
        [reading](ServerCallContext&,
                  const Bytes&) -> Task<StatusOr<Bytes>> {
          marshal::Writer w;
          w.WriteI32(reading);
          co_return w.Take();
        });
  }
  auto client = MakeClient("client");
  CallOptions opts;
  opts.custom_collator =
      [](ReplyStream& stream) -> Task<StatusOr<Bytes>> {
    int64_t sum = 0;
    int count = 0;
    while (true) {
      std::optional<Reply> r = co_await stream.Next();
      if (!r.has_value()) {
        break;
      }
      if (!r->result.ok()) {
        continue;
      }
      marshal::Reader reader(*r->result);
      sum += reader.ReadI32();
      ++count;
    }
    if (count == 0) {
      co_return Status(ErrorCode::kUnavailable, "no readings");
    }
    marshal::Writer w;
    w.WriteI32(static_cast<int32_t>(sum / count));
    co_return w.Take();
  };
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 1,
                             {}, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  marshal::Reader reader(*r);
  EXPECT_EQ(reader.ReadI32(), 110);
}

TEST_F(CoreTest, CallSucceedsWhenOneMemberCrashes) {
  auto setup = MakeEchoTroupe(3, 108);
  auto client = MakeClient("client");
  setup->processes[2]->host()->Crash();
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("resilient"), {},
                             Duration::Seconds(120));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(StringFromBytes(*r), "resilient");
  EXPECT_EQ(setup->executions[0], 1);
  EXPECT_EQ(setup->executions[1], 1);
  EXPECT_EQ(setup->executions[2], 0);
}

TEST_F(CoreTest, CallFailsWhenAllMembersCrash) {
  auto setup = MakeEchoTroupe(2, 109);
  auto client = MakeClient("client");
  setup->processes[0]->host()->Crash();
  setup->processes[1]->host()->Crash();
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("doomed"), {},
                             Duration::Seconds(120));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
}

TEST_F(CoreTest, StaleBindingRejected) {
  auto setup = MakeEchoTroupe(2, 110);
  auto client = MakeClient("client");
  Troupe stale = setup->troupe;
  stale.id = TroupeId{9999};  // wrong incarnation
  StatusOr<Bytes> r = DoCall(client.get(), stale, setup->module, 0,
                             BytesFromString("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kStaleBinding);
  EXPECT_EQ(setup->executions[0], 0);
  EXPECT_EQ(setup->executions[1], 0);
}

TEST_F(CoreTest, UnknownProcedureReturnsNotFound) {
  auto setup = MakeEchoTroupe(1, 111);
  auto client = MakeClient("client");
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 42,
                             BytesFromString("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST_F(CoreTest, RemoteHandlerErrorPropagates) {
  auto setup = MakeEchoTroupe(1, 112);
  setup->processes[0]->ExportProcedure(
      setup->module, 2,
      [](ServerCallContext&, const Bytes&) -> Task<StatusOr<Bytes>> {
        co_return Status(ErrorCode::kInvalidArgument, "bad temperature");
      });
  auto client = MakeClient("client");
  StatusOr<Bytes> r =
      DoCall(client.get(), setup->troupe, setup->module, 2, {});
  ASSERT_FALSE(r.ok());
  // The handler's error code and message travel through the return
  // message unchanged.
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("bad temperature"),
            std::string::npos);
}

// ----------------------------------------------------- many-to-one -------

// Builds a replicated client troupe: n processes sharing a troupe ID.
struct ClientTroupe {
  std::vector<std::unique_ptr<RpcProcess>> processes;
  Troupe troupe;
};

TEST_F(CoreTest, ManyToOneExecutesOnceAndAnswersAllMembers) {
  auto server = MakeEchoTroupe(1, 120);
  // Three-member client troupe.
  ClientTroupe clients;
  clients.troupe.id = TroupeId{121};
  for (int i = 0; i < 3; ++i) {
    sim::Host* host = world_.AddHost("cli" + std::to_string(i));
    auto p = std::make_unique<RpcProcess>(&world_.network(), host, 8000);
    p->SetTroupeId(clients.troupe.id);
    p->SetClientTroupeResolver(MakeResolver());
    const ModuleNumber m = p->ExportModule("client-module");
    clients.troupe.members.push_back(p->module_address(m));
    clients.processes.push_back(std::move(p));
  }
  directory_[clients.troupe.id] = clients.troupe;

  // All members of the client troupe act for the same logical thread and
  // make the same call (deterministic replicas).
  const ThreadId thread{7, 7, 7};
  std::vector<std::string> replies(3);
  for (int i = 0; i < 3; ++i) {
    world_.executor().Spawn(
        [](RpcProcess* p, ThreadId t, Troupe srv, ModuleNumber m,
           std::string* out) -> Task<void> {
          StatusOr<Bytes> r =
              co_await p->Call(t, srv, m, 0, BytesFromString("shared"));
          CIRCUS_CHECK(r.ok());
          *out = StringFromBytes(*r);
        }(clients.processes[i].get(), thread, server->troupe,
          server->module, &replies[i]));
  }
  world_.RunFor(Duration::Seconds(10));
  // The server performed the procedure exactly once even though three
  // call messages arrived (Section 4.3.2).
  EXPECT_EQ(server->executions[0], 1);
  EXPECT_EQ(server->processes[0]->stats().call_messages_received, 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(replies[i], "shared") << "client member " << i;
  }
}

TEST_F(CoreTest, ManyToOneDetectsArgumentDisagreement) {
  auto server = MakeEchoTroupe(1, 122);
  ClientTroupe clients;
  clients.troupe.id = TroupeId{123};
  for (int i = 0; i < 2; ++i) {
    sim::Host* host = world_.AddHost("cli" + std::to_string(i));
    auto p = std::make_unique<RpcProcess>(&world_.network(), host, 8000);
    p->SetTroupeId(clients.troupe.id);
    p->SetClientTroupeResolver(MakeResolver());
    const ModuleNumber m = p->ExportModule("client-module");
    clients.troupe.members.push_back(p->module_address(m));
    clients.processes.push_back(std::move(p));
  }
  directory_[clients.troupe.id] = clients.troupe;
  const ThreadId thread{7, 7, 9};
  std::vector<Status> statuses(2);
  for (int i = 0; i < 2; ++i) {
    // The "replicas" disagree: member 0 sends "A", member 1 sends "B" --
    // a determinism violation the unanimous argument collation catches.
    const std::string arg = (i == 0) ? "A" : "B";
    world_.executor().Spawn(
        [](RpcProcess* p, ThreadId t, Troupe srv, ModuleNumber m,
           std::string a, Status* out) -> Task<void> {
          StatusOr<Bytes> r =
              co_await p->Call(t, srv, m, 0, BytesFromString(a));
          *out = r.status();
        }(clients.processes[i].get(), thread, server->troupe,
          server->module, arg, &statuses[i]));
  }
  world_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(server->executions[0], 0);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(statuses[i].code(), ErrorCode::kDisagreement)
        << statuses[i].ToString();
  }
  EXPECT_EQ(server->processes[0]->stats().argument_disagreements, 1u);
}

TEST_F(CoreTest, ManyToManyNoIntraTroupeCommunication) {
  // 2-member client troupe calls 2-member server troupe; assert that no
  // packet ever flows between members of the same troupe
  // (Section 4.3.3's distinguishing property).
  auto server = MakeEchoTroupe(2, 130);
  ClientTroupe clients;
  clients.troupe.id = TroupeId{131};
  for (int i = 0; i < 2; ++i) {
    sim::Host* host = world_.AddHost("cli" + std::to_string(i));
    auto p = std::make_unique<RpcProcess>(&world_.network(), host, 8000);
    p->SetTroupeId(clients.troupe.id);
    p->SetClientTroupeResolver(MakeResolver());
    const ModuleNumber m = p->ExportModule("client-module");
    clients.troupe.members.push_back(p->module_address(m));
    clients.processes.push_back(std::move(p));
  }
  directory_[clients.troupe.id] = clients.troupe;

  std::set<net::HostAddress> client_hosts;
  std::set<net::HostAddress> server_hosts;
  for (const auto& m : clients.troupe.members) {
    client_hosts.insert(m.process.host);
  }
  for (const auto& m : server->troupe.members) {
    server_hosts.insert(m.process.host);
  }
  int intra_troupe_packets = 0;
  const obs::EventBus::SubscriberId sub =
      world_.bus().Subscribe([&](const obs::Event& e) {
        if (e.kind != obs::EventKind::kPacketSend) {
          return;
        }
        const uint32_t src = obs::PackedAddressHost(e.a);
        const uint32_t dst = obs::PackedAddressHost(e.b);
        const bool both_client =
            client_hosts.contains(src) && client_hosts.contains(dst);
        const bool both_server =
            server_hosts.contains(src) && server_hosts.contains(dst);
        if (both_client || both_server) {
          ++intra_troupe_packets;
        }
      });

  const ThreadId thread{7, 7, 11};
  int completions = 0;
  for (int i = 0; i < 2; ++i) {
    world_.executor().Spawn(
        [](RpcProcess* p, ThreadId t, Troupe srv, ModuleNumber m,
           int* done) -> Task<void> {
          StatusOr<Bytes> r =
              co_await p->Call(t, srv, m, 0, BytesFromString("mm"));
          CIRCUS_CHECK(r.ok());
          ++*done;
        }(clients.processes[i].get(), thread, server->troupe,
          server->module, &completions));
  }
  world_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(server->executions[0], 1);
  EXPECT_EQ(server->executions[1], 1);
  world_.bus().Unsubscribe(sub);
  EXPECT_EQ(intra_troupe_packets, 0);
}

TEST_F(CoreTest, LateClientMemberServedFromBufferedResult) {
  // First-come argument collation (Section 4.3.4): the server executes
  // on the first member's call message; a slow member's call arriving
  // after execution is answered from the buffered return message, so the
  // execution appears instantaneous to it.
  RpcOptions server_opts;
  server_opts.argument_collation = Collation::kFirstCome;
  sim::Host* server_host = world_.AddHost("server");
  RpcProcess server(&world_.network(), server_host, 9000, server_opts);
  server.SetClientTroupeResolver(MakeResolver());
  const ModuleNumber module = server.ExportModule("svc");
  int executions = 0;
  server.ExportProcedure(
      module, 0,
      [&executions](ServerCallContext&,
                    const Bytes& args) -> Task<StatusOr<Bytes>> {
        ++executions;
        co_return args;
      });
  Troupe server_troupe;
  server_troupe.id = TroupeId{195};
  server.SetTroupeId(server_troupe.id);
  server_troupe.members.push_back(server.module_address(module));
  directory_[server_troupe.id] = server_troupe;

  Troupe client_troupe;
  client_troupe.id = TroupeId{196};
  std::vector<std::unique_ptr<RpcProcess>> clients;
  for (int i = 0; i < 2; ++i) {
    sim::Host* host = world_.AddHost("cli" + std::to_string(i));
    auto p = std::make_unique<RpcProcess>(&world_.network(), host, 8000);
    p->SetTroupeId(client_troupe.id);
    p->SetClientTroupeResolver(MakeResolver());
    const ModuleNumber m = p->ExportModule("cli");
    client_troupe.members.push_back(p->module_address(m));
    clients.push_back(std::move(p));
  }
  directory_[client_troupe.id] = client_troupe;

  const ThreadId thread{8, 8, 8};
  std::vector<double> completion_ms(2, -1);
  for (int i = 0; i < 2; ++i) {
    const Duration start_delay =
        i == 0 ? Duration::Zero() : Duration::Seconds(1);  // the laggard
    world_.executor().Spawn(
        [](RpcProcess* p, ThreadId t, Troupe srv, ModuleNumber m,
           Duration delay, double* out) -> Task<void> {
          co_await p->host()->SleepFor(delay);
          const sim::TimePoint t0 = p->host()->executor().now();
          StatusOr<Bytes> r =
              co_await p->Call(t, srv, m, 0, BytesFromString("fc"));
          CIRCUS_CHECK(r.ok());
          *out = (p->host()->executor().now() - t0).ToMillisF();
        }(clients[i].get(), thread, server_troupe, module, start_delay,
          &completion_ms[i]));
  }
  world_.RunFor(Duration::Seconds(30));
  EXPECT_EQ(executions, 1);  // exactly-once despite two call messages
  EXPECT_EQ(server.stats().late_members_served, 1u);
  // The laggard's call completed immediately (buffered result), without
  // waiting for a fresh execution.
  EXPECT_GE(completion_ms[1], 0.0);
  EXPECT_LT(completion_ms[1], 100.0);
}

TEST_F(CoreTest, MulticastFallbackRecoversLostBlast) {
  // Section 4.3.7: the one multicast transmission is unreliable; a
  // member that missed it is reached by the reliable point-to-point
  // fallback, and the duplicate-suppression machinery keeps execution
  // exactly-once if both copies arrive.
  RpcOptions opts_with_fast_fallback;
  opts_with_fast_fallback.multicast_fallback = Duration::Millis(300);
  auto setup = MakeEchoTroupe(3, 197, opts_with_fast_fallback);
  const net::HostAddress group = net::MakeMulticastAddress(6);
  for (auto& p : setup->processes) {
    p->JoinMulticastGroup(group);
  }
  auto client = MakeClient("client", opts_with_fast_fallback);
  // Member 1 loses every multicast delivery but keeps unicast: model by
  // dropping packets from the client to member 1 briefly (the blast),
  // then healing before the fallback fires.
  net::FaultPlan lossy;
  lossy.loss_probability = 1.0;
  world_.network().SetPairFaultPlan(client->host()->id(),
                                    setup->processes[1]->host()->id(),
                                    lossy);
  world_.executor().ScheduleAfter(Duration::Millis(100), [&] {
    world_.network().ClearPairFaultPlans();
  });
  CallOptions opts;
  opts.multicast_group = group;
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("mf"), opts,
                             Duration::Seconds(60));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(setup->executions[i], 1) << "member " << i;
  }
  // The fallback actually sent something beyond the single blast.
  EXPECT_GT(client->endpoint().counters().data_segments_sent, 1u);
}

TEST_F(CoreTest, ThreadIdPropagatesThroughNestedCalls) {
  // client -> A -> B: B's handler must see the root thread ID
  // (Section 3.4.1).
  auto backend = MakeEchoTroupe(1, 140);
  ThreadId seen_at_backend{};
  backend->processes[0]->ExportProcedure(
      backend->module, 3,
      [&seen_at_backend](ServerCallContext& ctx,
                         const Bytes& args) -> Task<StatusOr<Bytes>> {
        seen_at_backend = ctx.thread;
        co_return args;
      });
  auto middle = MakeEchoTroupe(1, 141);
  const Troupe backend_troupe = backend->troupe;
  const ModuleNumber backend_module = backend->module;
  middle->processes[0]->ExportProcedure(
      middle->module, 3,
      [backend_troupe, backend_module](
          ServerCallContext& ctx,
          const Bytes& args) -> Task<StatusOr<Bytes>> {
        co_return co_await ctx.Call(backend_troupe, backend_module, 3,
                                    args);
      });
  auto client = MakeClient("client");
  ThreadId root{};
  bool done = false;
  world_.executor().Spawn(
      [](RpcProcess* c, Troupe mid, ModuleNumber m, ThreadId* out_thread,
         bool* out_done) -> Task<void> {
        ThreadId t = c->NewRootThread();
        *out_thread = t;
        StatusOr<Bytes> r =
            co_await c->Call(t, mid, m, 3, BytesFromString("nested"));
        CIRCUS_CHECK(r.ok());
        *out_done = true;
      }(client.get(), middle->troupe, middle->module, &root, &done));
  world_.RunFor(Duration::Seconds(10));
  EXPECT_TRUE(done);
  EXPECT_EQ(seen_at_backend, root);
}

TEST_F(CoreTest, RuntimeModulePingAndSetTroupeId) {
  auto setup = MakeEchoTroupe(1, 150);
  auto client = MakeClient("client");
  // Ping.
  StatusOr<Bytes> ping = DoCall(client.get(), setup->troupe,
                                kRuntimeModule, kPing, {});
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  // set_troupe_id changes the member's notion of its troupe.
  marshal::Writer w;
  w.WriteU64(777);
  StatusOr<Bytes> set = DoCall(client.get(), setup->troupe, kRuntimeModule,
                               kSetTroupeId, w.Take());
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(setup->processes[0]->troupe_id().value, 777u);
}

TEST_F(CoreTest, GetStateTransfersModuleState) {
  auto setup = MakeEchoTroupe(1, 151);
  setup->processes[0]->SetStateProvider(setup->module, [] {
    marshal::Writer w;
    w.WriteString("the module state");
    return w.Take();
  });
  auto client = MakeClient("client");
  marshal::Writer w;
  w.WriteU16(setup->module);
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, kRuntimeModule,
                             kGetState, w.Take());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  marshal::Reader reader(*r);
  EXPECT_EQ(reader.ReadString(), "the module state");
}

TEST_F(CoreTest, MulticastCallReachesWholeTroupe) {
  auto setup = MakeEchoTroupe(3, 160);
  const net::HostAddress group = net::MakeMulticastAddress(5);
  for (auto& p : setup->processes) {
    p->JoinMulticastGroup(group);
  }
  auto client = MakeClient("client");
  CallOptions opts;
  opts.multicast_group = group;
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("mc"), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(setup->executions[i], 1);
  }
  // The client transmitted exactly one data segment for the whole
  // one-to-many call (1 + n messages rather than n + n,
  // Section 4.3.3/4.3.7); everything else is returns and ack traffic.
  EXPECT_EQ(client->endpoint().counters().data_segments_sent, 1u);
}

TEST_F(CoreTest, ServerSideArgumentGeneratorAveragesClientInputs) {
  // Figure 7.7: a temperature controller whose set_temperature procedure
  // averages the (deliberately different) readings supplied by the
  // members of the client troupe, via the server-side argument
  // generator (ctx.collected_arguments) with the unanimity check off.
  RpcOptions server_opts;
  server_opts.argument_unanimity_check = false;
  sim::Host* server_host = world_.AddHost("controller");
  RpcProcess controller(&world_.network(), server_host, 9000, server_opts);
  controller.SetClientTroupeResolver(MakeResolver());
  const ModuleNumber module = controller.ExportModule("controller");
  double average_set = 0;
  controller.ExportProcedure(
      module, 0,
      [&average_set](ServerCallContext& ctx,
                     const Bytes&) -> Task<StatusOr<Bytes>> {
        double sum = 0;
        int n = 0;
        // for temperature in arguments() do ... (Figure 7.7)
        for (const auto& [peer, arg] : ctx.collected_arguments) {
          marshal::Reader r(arg);
          sum += r.ReadF64();
          ++n;
        }
        average_set = sum / n;
        co_return Bytes{};
      });
  Troupe controller_troupe;
  controller_troupe.id = TroupeId{190};
  controller.SetTroupeId(controller_troupe.id);
  controller_troupe.members.push_back(controller.module_address(module));
  directory_[controller_troupe.id] = controller_troupe;

  // A 3-member client troupe whose members each read a slightly
  // different local sensor.
  Troupe client_troupe;
  client_troupe.id = TroupeId{191};
  std::vector<std::unique_ptr<RpcProcess>> clients;
  for (int i = 0; i < 3; ++i) {
    sim::Host* host = world_.AddHost("sensor" + std::to_string(i));
    auto p = std::make_unique<RpcProcess>(&world_.network(), host, 8000);
    p->SetTroupeId(client_troupe.id);
    p->SetClientTroupeResolver(MakeResolver());
    const ModuleNumber m = p->ExportModule("sensor");
    client_troupe.members.push_back(p->module_address(m));
    clients.push_back(std::move(p));
  }
  directory_[client_troupe.id] = client_troupe;

  const ThreadId thread{9, 9, 9};
  const double readings[] = {19.0, 21.0, 23.0};
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    world_.executor().Spawn(
        [](RpcProcess* p, ThreadId t, Troupe srv, ModuleNumber m,
           double reading, int* out) -> Task<void> {
          marshal::Writer w;
          w.WriteF64(reading);
          StatusOr<Bytes> r = co_await p->Call(t, srv, m, 0, w.Take());
          CIRCUS_CHECK(r.ok());
          ++*out;
        }(clients[i].get(), thread, controller_troupe, module, readings[i],
          &done));
  }
  world_.RunFor(Duration::Seconds(30));
  EXPECT_EQ(done, 3);
  EXPECT_DOUBLE_EQ(average_set, 21.0);  // (19 + 21 + 23) / 3
}

TEST_F(CoreTest, TypedCollatorGivesTypeSafeExplicitReplication) {
  // Section 7.4's type-safe generator, through TypedReplyStream: a
  // collator written against decoded int32 values, returning their
  // minimum.
  auto setup = MakeEchoTroupe(3, 192);
  for (int i = 0; i < 3; ++i) {
    const int32_t load = 10 * (i + 1);  // member i reports load 10(i+1)
    setup->processes[i]->ExportProcedure(
        setup->module, 5,
        [load](ServerCallContext&, const Bytes&) -> Task<StatusOr<Bytes>> {
          marshal::Writer w;
          w.WriteI32(load);
          co_return w.Take();
        });
  }
  auto client = MakeClient("client");
  CallOptions opts;
  opts.custom_collator = MakeTypedCollator<int32_t>(
      [](const Bytes& raw) -> StatusOr<int32_t> {
        marshal::Reader r(raw);
        const int32_t v = r.ReadI32();
        if (!r.AtEnd()) {
          return Status(ErrorCode::kProtocolError, "bad i32");
        }
        return v;
      },
      [](const int32_t& v) {
        marshal::Writer w;
        w.WriteI32(v);
        return w.Take();
      },
      [](TypedReplyStream<int32_t>& stream)
          -> Task<StatusOr<int32_t>> {
        std::optional<int32_t> minimum;
        while (true) {
          std::optional<TypedReply<int32_t>> r = co_await stream.Next();
          if (!r.has_value()) {
            break;
          }
          if (!r->result.ok()) {
            continue;
          }
          if (!minimum.has_value() || *r->result < *minimum) {
            minimum = *r->result;
          }
        }
        if (!minimum.has_value()) {
          co_return Status(ErrorCode::kUnavailable, "no loads");
        }
        co_return *minimum;
      });
  StatusOr<Bytes> r =
      DoCall(client.get(), setup->troupe, setup->module, 5, {}, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  marshal::Reader reader(*r);
  EXPECT_EQ(reader.ReadI32(), 10);  // the least-loaded member
}

TEST_F(CoreTest, WatchdogConfirmsAgreement) {
  // The watchdog scheme (Section 4.3.4): the call returns with the first
  // reply; the watchdog later confirms the stragglers matched.
  auto setup = MakeEchoTroupe(3, 180, {}, /*reply_suffix_per_member=*/false,
                              /*delay_ms=*/{200, 5, 100});
  auto client = MakeClient("client");
  auto verdict = std::make_shared<std::optional<Status>>();
  CallOptions opts;
  opts.watchdog = [verdict](const Status& s) { verdict->emplace(s); };
  std::string value;
  double elapsed_ms = -1;
  const sim::TimePoint start = world_.now();
  world_.executor().Spawn(
      [](RpcProcess* c, Troupe t, ModuleNumber m, CallOptions o,
         sim::TimePoint t0, std::string* out, double* out_ms) -> Task<void> {
        StatusOr<Bytes> r = co_await c->Call(c->NewRootThread(), t, m, 0,
                                             BytesFromString("w"), o);
        CIRCUS_CHECK(r.ok());
        *out = StringFromBytes(*r);
        *out_ms = (c->host()->executor().now() - t0).ToMillisF();
      }(client.get(), setup->troupe, setup->module, opts, start, &value,
        &elapsed_ms));
  world_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(value, "w");
  // Returned at the fastest member's pace...
  EXPECT_LT(elapsed_ms, 190.0);
  // ...and the watchdog eventually confirmed agreement.
  ASSERT_TRUE(verdict->has_value());
  EXPECT_TRUE((*verdict)->ok()) << (*verdict)->ToString();
}

TEST_F(CoreTest, WatchdogDetectsLateDisagreement) {
  // The slowest member returns a different value: the main computation
  // already proceeded, but the watchdog reports the inconsistency so
  // the application can abort (Section 4.3.4).
  auto setup = MakeEchoTroupe(3, 181, {}, /*reply_suffix_per_member=*/false,
                              /*delay_ms=*/{300, 5, 50});
  setup->processes[0]->ExportProcedure(
      setup->module, 0,
      [](ServerCallContext&, const Bytes& args) -> Task<StatusOr<Bytes>> {
        Bytes out = args;
        out.push_back('?');  // the divergent (slow) replica
        co_return out;
      });
  auto client = MakeClient("client");
  auto verdict = std::make_shared<std::optional<Status>>();
  CallOptions opts;
  opts.watchdog = [verdict](const Status& s) { verdict->emplace(s); };
  world_.executor().Spawn(
      [](RpcProcess* c, Troupe t, ModuleNumber m, CallOptions o) -> Task<void> {
        StatusOr<Bytes> r = co_await c->Call(c->NewRootThread(), t, m, 0,
                                             BytesFromString("x"), o);
        CIRCUS_CHECK(r.ok());
      }(client.get(), setup->troupe, setup->module, opts));
  world_.RunFor(Duration::Seconds(10));
  ASSERT_TRUE(verdict->has_value());
  EXPECT_EQ((*verdict)->code(), ErrorCode::kDisagreement);
}

TEST_F(CoreTest, WatchdogIgnoresCrashedMembers) {
  auto setup = MakeEchoTroupe(3, 182);
  setup->processes[2]->host()->Crash();
  auto client = MakeClient("client");
  auto verdict = std::make_shared<std::optional<Status>>();
  CallOptions opts;
  opts.watchdog = [verdict](const Status& s) { verdict->emplace(s); };
  world_.executor().Spawn(
      [](RpcProcess* c, Troupe t, ModuleNumber m, CallOptions o) -> Task<void> {
        StatusOr<Bytes> r = co_await c->Call(c->NewRootThread(), t, m, 0,
                                             BytesFromString("x"), o);
        CIRCUS_CHECK(r.ok());
      }(client.get(), setup->troupe, setup->module, opts));
  world_.RunFor(Duration::Seconds(60));
  ASSERT_TRUE(verdict->has_value());
  EXPECT_TRUE((*verdict)->ok());  // a crash is masked, not a disagreement
}

TEST_F(CoreTest, QuorumPreventsMinorityPartitionDivergence) {
  // Section 4.3.5: requiring a majority of the expected replies keeps a
  // client that is partitioned off with a minority of the troupe from
  // proceeding.
  auto setup = MakeEchoTroupe(3, 183);
  auto client = MakeClient("client");
  // Partition: the client and member 0 on one side; members 1, 2 on the
  // other.
  world_.network().Partition(
      {client->host()->id(), setup->processes[0]->host()->id()});
  CallOptions opts;
  opts.minimum_successes = 2;  // majority of 3
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("split"), opts,
                             Duration::Seconds(120));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
  // Only the same-side member executed; after the partition heals the
  // quorum call succeeds.
  world_.network().HealPartitions();
  StatusOr<Bytes> r2 = DoCall(client.get(), setup->troupe, setup->module,
                              0, BytesFromString("joined"), opts,
                              Duration::Seconds(120));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
}

TEST_F(CoreTest, CallStatisticsAreTracked) {
  auto setup = MakeEchoTroupe(2, 170);
  auto client = MakeClient("client");
  StatusOr<Bytes> r = DoCall(client.get(), setup->troupe, setup->module, 0,
                             BytesFromString("s"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(client->stats().calls_made, 1u);
  EXPECT_EQ(setup->processes[0]->stats().calls_executed, 1u);
}

// --------------------------------------------- move vs copy decoding ----

// The three wire decoders each have an overload that takes the buffer
// (and keeps it as the payload) and one that reads a const buffer. Both
// must accept and reject the same inputs and produce equal values.
enum class Codec { kSegment, kCallBody, kReturnBody };

struct DecodeCase {
  std::string name;
  Codec codec;
  Bytes raw;
  bool decodes;
};

// gtest would print the case as a raw byte dump (heap addresses
// included) and ctest would put that dump into the test's name.
void PrintTo(const DecodeCase& c, std::ostream* os) { *os << c.name; }

Bytes SegmentWire(uint8_t type, uint8_t total, const std::string& data) {
  msg::Segment s;
  s.type = static_cast<msg::MessageType>(type & 1);
  s.please_ack = true;
  s.total_segments = total == 0 ? 1 : total;
  s.segment_number = 1;
  s.call_number = 0x01020304;
  s.data = BytesFromString(data);
  Bytes raw = s.Encode();
  raw[0] = type;
  raw[2] = total;
  return raw;
}

Bytes CallWire(const std::string& arguments) {
  CallBody b;
  b.thread = ThreadId{7, 8, 9};
  b.thread_seq = 10;
  b.client_troupe = TroupeId{11};
  b.server_troupe = TroupeId{12};
  b.module = 13;
  b.procedure = 14;
  b.arguments = BytesFromString(arguments);
  return b.Encode();
}

Bytes ReturnWire(const std::string& results) {
  return ReturnBody::Success(BytesFromString(results)).Encode();
}

// `raw` with the 32-bit big-endian length field at `offset` set to `n`.
Bytes WithLength(Bytes raw, size_t offset, uint32_t n) {
  raw[offset] = static_cast<uint8_t>(n >> 24);
  raw[offset + 1] = static_cast<uint8_t>(n >> 16);
  raw[offset + 2] = static_cast<uint8_t>(n >> 8);
  raw[offset + 3] = static_cast<uint8_t>(n);
  return raw;
}

Bytes Appended(Bytes raw, uint8_t extra) {
  raw.push_back(extra);
  return raw;
}

Bytes Prefix(const Bytes& raw, size_t n) {
  return Bytes(raw.begin(), raw.begin() + n);
}

std::vector<DecodeCase> DecodeCases() {
  // CallBody's arguments length prefix sits at byte 32, ReturnBody's
  // results length prefix at byte 2.
  const Bytes call = CallWire("args");
  const Bytes ret = ReturnWire("results");
  const Bytes error =
      ReturnBody::Error(ErrorCode::kDisagreement, "members differ").Encode();
  return {
      {"SegmentRoundTrip", Codec::kSegment, SegmentWire(1, 3, "data"), true},
      {"SegmentEmptyPayload", Codec::kSegment, SegmentWire(0, 1, ""), true},
      {"SegmentShortHeader", Codec::kSegment,
       Prefix(SegmentWire(0, 1, ""), 7), false},
      {"SegmentZeroTotal", Codec::kSegment, SegmentWire(0, 0, "x"), false},
      {"SegmentUnknownType", Codec::kSegment, SegmentWire(2, 1, "x"), false},
      {"CallRoundTrip", Codec::kCallBody, call, true},
      {"CallEmptyPayload", Codec::kCallBody, CallWire(""), true},
      {"CallShortHeader", Codec::kCallBody, Prefix(call, 20), false},
      {"CallLengthShort", Codec::kCallBody, WithLength(call, 32, 3), false},
      {"CallLengthLong", Codec::kCallBody, WithLength(call, 32, 5), false},
      {"CallTrailingBytes", Codec::kCallBody, Appended(call, 0), false},
      {"ReturnRoundTrip", Codec::kReturnBody, ret, true},
      {"ReturnEmptyPayload", Codec::kReturnBody, ReturnWire(""), true},
      {"ReturnError", Codec::kReturnBody, error, true},
      {"ReturnErrorTrailingBytes", Codec::kReturnBody, Appended(error, 0),
       false},
      {"ReturnShortHeader", Codec::kReturnBody, Prefix(ret, 1), false},
      {"ReturnLengthShort", Codec::kReturnBody, WithLength(ret, 2, 6), false},
      {"ReturnLengthLong", Codec::kReturnBody, WithLength(ret, 2, 8), false},
      {"ReturnTrailingBytes", Codec::kReturnBody, Appended(ret, 0), false},
  };
}

template <typename T>
void ExpectMoveDecodeEqualsCopyDecode(const DecodeCase& c) {
  const std::optional<T> copied = T::Decode(c.raw);
  Bytes owned = c.raw;
  const std::optional<T> moved = T::Decode(std::move(owned));
  EXPECT_EQ(copied.has_value(), c.decodes);
  EXPECT_EQ(moved.has_value(), c.decodes);
  EXPECT_TRUE(copied == moved);
  if (moved.has_value()) {
    EXPECT_EQ(moved->Encode(), c.raw);  // a round trip
  }
}

class DecodeParityTest : public ::testing::TestWithParam<DecodeCase> {};

TEST_P(DecodeParityTest, MoveDecoderEqualsCopyDecoder) {
  switch (GetParam().codec) {
    case Codec::kSegment:
      ExpectMoveDecodeEqualsCopyDecode<msg::Segment>(GetParam());
      break;
    case Codec::kCallBody:
      ExpectMoveDecodeEqualsCopyDecode<CallBody>(GetParam());
      break;
    case Codec::kReturnBody:
      ExpectMoveDecodeEqualsCopyDecode<ReturnBody>(GetParam());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Wire, DecodeParityTest, ::testing::ValuesIn(DecodeCases()),
    [](const ::testing::TestParamInfo<DecodeCase>& param) {
      return param.param.name;
    });

}  // namespace
}  // namespace circus::core
