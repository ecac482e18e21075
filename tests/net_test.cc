#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/net/address.h"
#include "src/net/network.h"
#include "src/net/socket.h"
#include "src/net/stream.h"
#include "src/net/world.h"
#include "tests/test_util.h"

namespace circus::net {
namespace {

using circus::testing::RunTask;
using sim::Duration;
using sim::Syscall;
using sim::SyscallCostModel;
using sim::Task;

// -------------------------------------------------------------- Address --

TEST(AddressTest, ToStringDottedQuad) {
  NetAddress a{MakeHostAddress(2), 9000};
  EXPECT_EQ(a.ToString(), "10.0.0.3:9000");
}

TEST(AddressTest, MulticastDetection) {
  EXPECT_TRUE(IsMulticastHost(MakeMulticastAddress(0)));
  EXPECT_FALSE(IsMulticastHost(MakeHostAddress(0)));
  NetAddress group{MakeMulticastAddress(1), 7};
  EXPECT_TRUE(group.is_multicast());
}

TEST(AddressTest, Ordering) {
  NetAddress a{1, 2};
  NetAddress b{1, 3};
  NetAddress c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (NetAddress{1, 2}));
}

// ------------------------------------------------------------- Datagram --

class NetTest : public ::testing::Test {
 protected:
  NetTest() : world_(7, SyscallCostModel::Free()) {
    hosts_ = world_.AddHosts("vax", 3);
  }
  World world_;
  std::vector<sim::Host*> hosts_;
};

TEST_F(NetTest, UnicastDelivery) {
  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  DatagramSocket b(&world_.network(), hosts_[1], 2000);
  std::string got;
  world_.executor().Spawn([](DatagramSocket* s, std::string* out) -> Task<void> {
    Datagram d = co_await s->Receive();
    *out = StringFromBytes(d.payload);
  }(&b, &got));
  world_.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    co_await s->Send(to, BytesFromString("hello"));
  }(&a, b.local_address()));
  world_.RunUntilIdle();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(world_.network().stats().packets_delivered, 1u);
}

TEST_F(NetTest, SourceAddressIsSender) {
  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  DatagramSocket b(&world_.network(), hosts_[1], 2000);
  NetAddress src;
  world_.executor().Spawn([](DatagramSocket* s, NetAddress* out) -> Task<void> {
    Datagram d = co_await s->Receive();
    *out = d.source;
  }(&b, &src));
  world_.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    co_await s->Send(to, BytesFromString("x"));
  }(&a, b.local_address()));
  world_.RunUntilIdle();
  EXPECT_EQ(src, a.local_address());
}

TEST_F(NetTest, SendToUnboundPortIsDropped) {
  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  world_.executor().Spawn([](DatagramSocket* s) -> Task<void> {
    co_await s->Send(NetAddress{MakeHostAddress(1), 4242},
                     BytesFromString("void"));
  }(&a));
  world_.RunUntilIdle();
  EXPECT_EQ(world_.network().stats().packets_lost, 1u);
  EXPECT_EQ(world_.network().stats().packets_delivered, 0u);
}

TEST_F(NetTest, LossPlanDropsEverything) {
  world_.network().set_default_fault_plan(FaultPlan::Lossy(1.0));
  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  DatagramSocket b(&world_.network(), hosts_[1], 2000);
  world_.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await s->Send(to, BytesFromString("gone"));
    }
  }(&a, b.local_address()));
  world_.RunUntilIdle();
  EXPECT_EQ(world_.network().stats().packets_lost, 5u);
  EXPECT_EQ(b.queued(), 0u);
}

TEST_F(NetTest, DuplicationDeliversTwice) {
  FaultPlan plan;
  plan.duplicate_probability = 1.0;
  world_.network().set_default_fault_plan(plan);
  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  DatagramSocket b(&world_.network(), hosts_[1], 2000);
  world_.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    co_await s->Send(to, BytesFromString("twin"));
  }(&a, b.local_address()));
  world_.RunUntilIdle();
  EXPECT_EQ(b.queued(), 2u);
}

TEST_F(NetTest, PartitionBlocksTrafficAndHealRestores) {
  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  DatagramSocket b(&world_.network(), hosts_[1], 2000);
  world_.network().Partition({hosts_[0]->id()});
  EXPECT_FALSE(world_.network().Connected(hosts_[0]->id(), hosts_[1]->id()));
  world_.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    co_await s->Send(to, BytesFromString("blocked"));
  }(&a, b.local_address()));
  world_.RunUntilIdle();
  EXPECT_EQ(b.queued(), 0u);
  EXPECT_EQ(world_.network().stats().packets_blocked_by_partition, 1u);

  world_.network().HealPartitions();
  world_.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    co_await s->Send(to, BytesFromString("through"));
  }(&a, b.local_address()));
  world_.RunUntilIdle();
  EXPECT_EQ(b.queued(), 1u);
}

TEST_F(NetTest, LayeredPartitionsRefineIntoMutualIsolation) {
  // Two layered calls carve three islands: {h0}, {h1}, and the rest.
  world_.network().Partition({hosts_[0]->id()});
  world_.network().Partition({hosts_[1]->id()});
  EXPECT_FALSE(world_.network().Connected(hosts_[0]->id(), hosts_[1]->id()));
  EXPECT_FALSE(world_.network().Connected(hosts_[0]->id(), hosts_[2]->id()));
  EXPECT_FALSE(world_.network().Connected(hosts_[1]->id(), hosts_[2]->id()));
  // Connected is reflexive even inside a one-host island.
  EXPECT_TRUE(world_.network().Connected(hosts_[0]->id(), hosts_[0]->id()));

  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  DatagramSocket b(&world_.network(), hosts_[1], 2000);
  DatagramSocket c(&world_.network(), hosts_[2], 3000);
  world_.executor().Spawn(
      [](DatagramSocket* s, NetAddress t1, NetAddress t2) -> Task<void> {
        co_await s->Send(t1, BytesFromString("x"));
        co_await s->Send(t2, BytesFromString("y"));
      }(&a, b.local_address(), c.local_address()));
  world_.RunUntilIdle();
  EXPECT_EQ(b.queued(), 0u);
  EXPECT_EQ(c.queued(), 0u);
  EXPECT_EQ(world_.network().stats().packets_blocked_by_partition, 2u);

  // One heal removes every layer, not just the most recent.
  world_.network().HealPartitions();
  EXPECT_TRUE(world_.network().Connected(hosts_[0]->id(), hosts_[1]->id()));
  EXPECT_TRUE(world_.network().Connected(hosts_[1]->id(), hosts_[2]->id()));
  world_.executor().Spawn(
      [](DatagramSocket* s, NetAddress t1, NetAddress t2) -> Task<void> {
        co_await s->Send(t1, BytesFromString("x"));
        co_await s->Send(t2, BytesFromString("y"));
      }(&a, b.local_address(), c.local_address()));
  world_.RunUntilIdle();
  EXPECT_EQ(b.queued(), 1u);
  EXPECT_EQ(c.queued(), 1u);
}

TEST_F(NetTest, MulticastPartitionBlocksPerRecipient) {
  DatagramSocket sender(&world_.network(), hosts_[0], 1000);
  DatagramSocket m1(&world_.network(), hosts_[1], 2000);
  DatagramSocket m2(&world_.network(), hosts_[2], 2000);
  const HostAddress group = MakeMulticastAddress(0);
  m1.JoinGroup(group);
  m2.JoinGroup(group);
  world_.network().Partition({hosts_[0]->id()});
  world_.executor().Spawn([](DatagramSocket* s, HostAddress g) -> Task<void> {
    co_await s->Send(NetAddress{g, 2000}, BytesFromString("sealed"));
  }(&sender, group));
  world_.RunUntilIdle();
  EXPECT_EQ(m1.queued(), 0u);
  EXPECT_EQ(m2.queued(), 0u);
  // One send operation, but the block is accounted per unreachable member.
  EXPECT_EQ(world_.network().stats().packets_sent, 1u);
  EXPECT_EQ(world_.network().stats().packets_blocked_by_partition, 2u);

  world_.network().HealPartitions();
  world_.executor().Spawn([](DatagramSocket* s, HostAddress g) -> Task<void> {
    co_await s->Send(NetAddress{g, 2000}, BytesFromString("open"));
  }(&sender, group));
  world_.RunUntilIdle();
  EXPECT_EQ(m1.queued(), 1u);
  EXPECT_EQ(m2.queued(), 1u);
}

TEST_F(NetTest, PairFaultPlanIsDirectionalAndClearable) {
  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  DatagramSocket b(&world_.network(), hosts_[1], 2000);
  world_.network().SetPairFaultPlan(hosts_[0]->id(), hosts_[1]->id(),
                                    FaultPlan::Lossy(1.0));
  world_.executor().Spawn(
      [](DatagramSocket* s1, DatagramSocket* s2) -> Task<void> {
        co_await s1->Send(s2->local_address(), BytesFromString("eaten"));
        co_await s2->Send(s1->local_address(), BytesFromString("back"));
      }(&a, &b));
  world_.RunUntilIdle();
  // The override only covers h0 -> h1; the reverse path keeps the default.
  EXPECT_EQ(b.queued(), 0u);
  EXPECT_EQ(a.queued(), 1u);
  EXPECT_EQ(world_.network().stats().packets_lost, 1u);

  world_.network().ClearPairFaultPlans();
  world_.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    co_await s->Send(to, BytesFromString("healed"));
  }(&a, b.local_address()));
  world_.RunUntilIdle();
  EXPECT_EQ(b.queued(), 1u);
}

TEST_F(NetTest, DuplicationIsCountedInStats) {
  FaultPlan plan;
  plan.duplicate_probability = 1.0;
  world_.network().set_default_fault_plan(plan);
  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  DatagramSocket b(&world_.network(), hosts_[1], 2000);
  world_.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    co_await s->Send(to, BytesFromString("twin"));
  }(&a, b.local_address()));
  world_.RunUntilIdle();
  EXPECT_EQ(world_.network().stats().packets_sent, 1u);
  EXPECT_EQ(world_.network().stats().packets_duplicated, 1u);
  EXPECT_EQ(world_.network().stats().packets_delivered, 2u);
}

TEST_F(NetTest, CrashDropsInFlightPackets) {
  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  auto b = std::make_unique<DatagramSocket>(&world_.network(), hosts_[1],
                                            2000);
  world_.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    co_await s->Send(to, BytesFromString("doomed"));
  }(&a, b->local_address()));
  // Crash the destination before the packet (500us flight) lands.
  world_.executor().ScheduleAfter(Duration::Micros(100),
                                  [&] { hosts_[1]->Crash(); });
  world_.RunUntilIdle();
  EXPECT_EQ(world_.network().stats().packets_delivered, 0u);
}

TEST_F(NetTest, RestartedHostDoesNotReceiveOldIncarnationTraffic) {
  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  auto b = std::make_unique<DatagramSocket>(&world_.network(), hosts_[1],
                                            2000);
  world_.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    co_await s->Send(to, BytesFromString("stale"));
  }(&a, b->local_address()));
  world_.executor().ScheduleAfter(Duration::Micros(100), [&] {
    hosts_[1]->Crash();
    hosts_[1]->Restart();
    // Rebind the same port in the new incarnation.
    b = std::make_unique<DatagramSocket>(&world_.network(), hosts_[1], 2000);
  });
  world_.RunUntilIdle();
  EXPECT_EQ(b->queued(), 0u);
}

TEST_F(NetTest, MulticastReachesAllGroupMembersWithOneSend) {
  DatagramSocket sender(&world_.network(), hosts_[0], 1000);
  DatagramSocket m1(&world_.network(), hosts_[1], 2000);
  DatagramSocket m2(&world_.network(), hosts_[2], 2000);
  const HostAddress group = MakeMulticastAddress(0);
  m1.JoinGroup(group);
  m2.JoinGroup(group);
  world_.executor().Spawn([](DatagramSocket* s, HostAddress g) -> Task<void> {
    co_await s->Send(NetAddress{g, 2000}, BytesFromString("all"));
  }(&sender, group));
  world_.RunUntilIdle();
  EXPECT_EQ(m1.queued(), 1u);
  EXPECT_EQ(m2.queued(), 1u);
  // One send operation, two deliveries.
  EXPECT_EQ(world_.network().stats().packets_sent, 1u);
  EXPECT_EQ(world_.network().stats().packets_delivered, 2u);
  // The cost model is Free, but the syscall is still counted.
  EXPECT_EQ(hosts_[0]->cpu().count(Syscall::kSendMsg), 1u);
}

TEST_F(NetTest, LeaveGroupStopsDelivery) {
  DatagramSocket sender(&world_.network(), hosts_[0], 1000);
  DatagramSocket m1(&world_.network(), hosts_[1], 2000);
  const HostAddress group = MakeMulticastAddress(0);
  m1.JoinGroup(group);
  m1.LeaveGroup(group);
  world_.executor().Spawn([](DatagramSocket* s, HostAddress g) -> Task<void> {
    co_await s->Send(NetAddress{g, 2000}, BytesFromString("none"));
  }(&sender, group));
  world_.RunUntilIdle();
  EXPECT_EQ(m1.queued(), 0u);
}

TEST_F(NetTest, PacketSendEventSeesEverySend) {
  DatagramSocket a(&world_.network(), hosts_[0], 1000);
  DatagramSocket b(&world_.network(), hosts_[1], 2000);
  int observed = 0;
  obs::EventBus::SubscriberId sub =
      world_.bus().Subscribe([&](const obs::Event& e) {
        observed += e.kind == obs::EventKind::kPacketSend ? 1 : 0;
      });
  world_.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await s->Send(to, BytesFromString("obs"));
    }
  }(&a, b.local_address()));
  world_.RunUntilIdle();
  world_.bus().Unsubscribe(sub);
  EXPECT_EQ(observed, 3);
}

TEST_F(NetTest, SendChargesSendmsgUnderBerkeleyModel) {
  World world(3, SyscallCostModel::Berkeley42Bsd());
  sim::Host* h0 = world.AddHost("a");
  sim::Host* h1 = world.AddHost("b");
  DatagramSocket a(&world.network(), h0, 1000);
  DatagramSocket b(&world.network(), h1, 2000);
  world.executor().Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    co_await s->Send(to, BytesFromString("x"));
  }(&a, b.local_address()));
  world.RunUntilIdle();
  EXPECT_EQ(h0->cpu().count(Syscall::kSendMsg), 1u);
  EXPECT_EQ(h0->cpu().kernel_time().nanos(),
            Duration::MillisF(8.1).nanos());
}

TEST_F(NetTest, EphemeralPortsAreUnique) {
  DatagramSocket a(&world_.network(), hosts_[0], 0);
  DatagramSocket b(&world_.network(), hosts_[0], 0);
  EXPECT_NE(a.local_address().port, b.local_address().port);
  EXPECT_GE(a.local_address().port, 49152);
}

// --------------------------------------------------------------- Stream --

TEST_F(NetTest, StreamEchoRoundTrip) {
  StreamListener listener(&world_.network(), hosts_[1], 7);
  std::string echoed;
  // Server: accept, echo one message.
  world_.executor().Spawn([](StreamListener* l) -> Task<void> {
    std::unique_ptr<StreamConnection> conn = co_await l->Accept();
    Bytes data = co_await conn->Read();
    co_await conn->Write(std::move(data));
    // Keep the connection alive until the world tears down.
    co_await conn->Read();
  }(&listener));
  // Client: connect, send, read echo.
  world_.executor().Spawn([](World* w, sim::Host* h, NetAddress server,
                             std::string* out) -> Task<void> {
    auto conn_or = co_await StreamConnect(&w->network(), h, server);
    CIRCUS_CHECK(conn_or.ok());
    std::unique_ptr<StreamConnection> conn = std::move(conn_or).value();
    co_await conn->Write(BytesFromString("ping"));
    Bytes reply = co_await conn->Read();
    *out = StringFromBytes(reply);
    co_await conn->Read();  // park until teardown
  }(&world_, hosts_[0], listener.local_address(), &echoed));
  world_.RunFor(Duration::Seconds(5));
  EXPECT_EQ(echoed, "ping");
}

TEST_F(NetTest, StreamSurvivesPacketLoss) {
  FaultPlan plan;
  plan.loss_probability = 0.3;
  world_.network().set_default_fault_plan(plan);
  StreamListener listener(&world_.network(), hosts_[1], 7);
  std::string received;
  world_.executor().Spawn([](StreamListener* l, std::string* out) -> Task<void> {
    std::unique_ptr<StreamConnection> conn = co_await l->Accept();
    Bytes data = co_await conn->ReadExactly(4000);
    *out = StringFromBytes(data);
    co_await conn->Read();
  }(&listener, &received));
  world_.executor().Spawn([](World* w, sim::Host* h,
                             NetAddress server) -> Task<void> {
    auto conn_or = co_await StreamConnect(&w->network(), h, server, 50);
    CIRCUS_CHECK(conn_or.ok());
    std::unique_ptr<StreamConnection> conn = std::move(conn_or).value();
    co_await conn->Write(Bytes(4000, 'z'));
    co_await conn->Read();  // park
  }(&world_, hosts_[0], listener.local_address()));
  world_.RunFor(Duration::Seconds(60));
  EXPECT_EQ(received, std::string(4000, 'z'));
}

TEST_F(NetTest, StreamConnectTimesOutWithNoServer) {
  Status status = Status::Ok();
  world_.executor().Spawn([](World* w, sim::Host* h, Status* out) -> Task<void> {
    auto conn_or = co_await StreamConnect(
        &w->network(), h, NetAddress{MakeHostAddress(1), 9999}, 3,
        Duration::Millis(100));
    *out = conn_or.status();
  }(&world_, hosts_[0], &status));
  world_.RunUntilIdle();
  EXPECT_EQ(status.code(), ErrorCode::kTimeout);
}

TEST_F(NetTest, StreamListenerAcceptsSequentialConnections) {
  StreamListener listener(&world_.network(), hosts_[1], 7);
  std::vector<std::string> served;
  world_.executor().Spawn([](StreamListener* l,
                             std::vector<std::string>* out) -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      std::unique_ptr<StreamConnection> conn = co_await l->Accept();
      Bytes data = co_await conn->Read();
      out->push_back(StringFromBytes(data));
      co_await conn->Write(std::move(data));
      // Let the connection object die: the client already has its echo.
    }
  }(&listener, &served));
  int echoes = 0;
  for (int c = 0; c < 2; ++c) {
    sim::Host* host = c == 0 ? hosts_[0] : hosts_[2];
    world_.executor().Spawn([](World* w, sim::Host* h, NetAddress server,
                               int id, int* out) -> Task<void> {
      auto conn_or = co_await StreamConnect(&w->network(), h, server);
      CIRCUS_CHECK(conn_or.ok());
      std::unique_ptr<StreamConnection> conn = std::move(conn_or).value();
      co_await conn->Write(
          BytesFromString("client" + std::to_string(id)));
      Bytes echo = co_await conn->Read();
      CIRCUS_CHECK(!echo.empty());
      ++*out;
      co_await conn->Read();  // park
    }(&world_, host, listener.local_address(), c, &echoes));
    world_.RunFor(Duration::Seconds(5));
  }
  EXPECT_EQ(echoes, 2);
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0], "client0");
  EXPECT_EQ(served[1], "client1");
}

TEST_F(NetTest, StreamBidirectionalBulkTransfer) {
  StreamListener listener(&world_.network(), hosts_[1], 7);
  std::string uploaded;
  world_.executor().Spawn([](StreamListener* l, std::string* out) -> Task<void> {
    std::unique_ptr<StreamConnection> conn = co_await l->Accept();
    Bytes up = co_await conn->ReadExactly(6000);
    *out = StringFromBytes(up);
    co_await conn->Write(Bytes(3000, 'D'));  // download
    co_await conn->Read();                   // park
  }(&listener, &uploaded));
  std::string downloaded;
  world_.executor().Spawn([](World* w, sim::Host* h, NetAddress server,
                             std::string* out) -> Task<void> {
    auto conn_or = co_await StreamConnect(&w->network(), h, server);
    CIRCUS_CHECK(conn_or.ok());
    std::unique_ptr<StreamConnection> conn = std::move(conn_or).value();
    co_await conn->Write(Bytes(6000, 'U'));
    Bytes down = co_await conn->ReadExactly(3000);
    *out = StringFromBytes(down);
    co_await conn->Read();  // park
  }(&world_, hosts_[0], listener.local_address(), &downloaded));
  world_.RunFor(Duration::Seconds(30));
  EXPECT_EQ(uploaded, std::string(6000, 'U'));
  EXPECT_EQ(downloaded, std::string(3000, 'D'));
}

TEST_F(NetTest, StreamChargesReadWriteNotSendmsg) {
  World world(3, SyscallCostModel::Berkeley42Bsd());
  sim::Host* server_host = world.AddHost("server");
  sim::Host* client_host = world.AddHost("client");
  StreamListener listener(&world.network(), server_host, 7);
  world.executor().Spawn([](StreamListener* l) -> Task<void> {
    std::unique_ptr<StreamConnection> conn = co_await l->Accept();
    Bytes data = co_await conn->Read();
    co_await conn->Write(std::move(data));
    co_await conn->Read();
  }(&listener));
  world.executor().Spawn([](World* w, sim::Host* h,
                            NetAddress server) -> Task<void> {
    auto conn_or = co_await StreamConnect(&w->network(), h, server);
    CIRCUS_CHECK(conn_or.ok());
    std::unique_ptr<StreamConnection> conn = std::move(conn_or).value();
    co_await conn->Write(BytesFromString("m"));
    co_await conn->Read();
    co_await conn->Read();  // park
  }(&world, client_host, listener.local_address()));
  world.RunFor(Duration::Seconds(5));
  EXPECT_EQ(client_host->cpu().count(Syscall::kWrite), 1u);
  // One read for the echo plus the parked read blocked in the "kernel".
  EXPECT_EQ(client_host->cpu().count(Syscall::kRead), 2u);
  EXPECT_EQ(client_host->cpu().count(Syscall::kSendMsg), 0u);
  EXPECT_EQ(client_host->cpu().count(Syscall::kSetITimer), 0u);
}

}  // namespace
}  // namespace circus::net
