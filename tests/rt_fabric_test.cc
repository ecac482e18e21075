// rt::UdpFabric over real loopback sockets: datagram delivery, emulated
// multicast fanout, socket error paths (identical Status semantics on
// the simulated and real fabrics), and the wire-parity golden test — the
// same paired-message exchange produces byte-identical segments whether
// it crosses the simulated Network or real UDP.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/msg/paired_endpoint.h"
#include "src/net/address.h"
#include "src/net/socket.h"
#include "src/net/world.h"
#include "src/rt/runtime.h"
#include "src/sim/task.h"
#include "tests/test_util.h"

namespace circus::rt {
namespace {

using circus::Bytes;
using circus::BytesFromString;
using circus::ErrorCode;
using circus::StringFromBytes;
using net::DatagramSocket;
using net::NetAddress;
using sim::Duration;
using sim::Task;

// ------------------------------------------------------ basic delivery --

TEST(RtFabricTest, SendAndReceiveOverLoopback) {
  Runtime runtime;
  sim::Host* client_host = runtime.AddHost("client");
  sim::Host* server_host = runtime.AddHost("server");
  DatagramSocket client(&runtime.fabric(), client_host, 0);
  DatagramSocket server(&runtime.fabric(), server_host, 0);

  bool done = false;
  server_host->Spawn([](DatagramSocket* s) -> Task<void> {
    net::Datagram d = co_await s->Receive();
    CIRCUS_CHECK(StringFromBytes(d.payload) == "ping");
    s->SendRaw(d.source, BytesFromString("pong"));
  }(&server));
  client_host->Spawn([](DatagramSocket* c, NetAddress to,
                        bool* out) -> Task<void> {
    circus::Status sent = co_await c->Send(to, BytesFromString("ping"));
    CIRCUS_CHECK(sent.ok());
    net::Datagram d = co_await c->Receive();
    *out = StringFromBytes(d.payload) == "pong";
  }(&client, server.local_address(), &done));

  EXPECT_TRUE(runtime.RunUntil([&done] { return done; },
                               Duration::Seconds(10)));
  EXPECT_GE(runtime.fabric().stats().packets_sent, 2u);
  EXPECT_GE(runtime.fabric().stats().packets_delivered, 2u);
}

TEST(RtFabricTest, ReceivedDatagramCarriesRealSourceAddress) {
  Runtime runtime;
  sim::Host* a_host = runtime.AddHost("a");
  sim::Host* b_host = runtime.AddHost("b");
  DatagramSocket a(&runtime.fabric(), a_host, 0);
  DatagramSocket b(&runtime.fabric(), b_host, 0);
  EXPECT_EQ(a.local_address().host, kLoopbackAddress);

  NetAddress seen_source;
  bool done = false;
  b_host->Spawn([](DatagramSocket* s, NetAddress* src,
                   bool* out) -> Task<void> {
    net::Datagram d = co_await s->Receive();
    *src = d.source;
    *out = true;
  }(&b, &seen_source, &done));
  ASSERT_TRUE(a.SendRaw(b.local_address(), BytesFromString("hi")).ok());
  ASSERT_TRUE(runtime.RunUntil([&done] { return done; },
                               Duration::Seconds(10)));
  // Replies to d.source must work: this is how every protocol layer
  // finds its peer, so the kernel-reported source must equal the
  // sender's bound address.
  EXPECT_EQ(seen_source, a.local_address());
}

// --------------------------------------------- emulated multicast fanout --

TEST(RtFabricTest, MulticastFansOutToJoinedSocketsOnly) {
  Runtime runtime;
  sim::Host* h1 = runtime.AddHost("m1");
  sim::Host* h2 = runtime.AddHost("m2");
  sim::Host* h3 = runtime.AddHost("outsider");
  sim::Host* sender_host = runtime.AddHost("sender");
  DatagramSocket s1(&runtime.fabric(), h1, 0);
  DatagramSocket s2(&runtime.fabric(), h2, 0);
  DatagramSocket outsider(&runtime.fabric(), h3, 0);
  DatagramSocket sender(&runtime.fabric(), sender_host, 0);

  const net::HostAddress group = net::MakeMulticastAddress(0);
  s1.JoinGroup(group);
  s2.JoinGroup(group);

  int received = 0;
  auto spawn_receiver = [&received](DatagramSocket* s) {
    s->host()->Spawn([](DatagramSocket* sock, int* out) -> Task<void> {
      net::Datagram d = co_await sock->Receive();
      CIRCUS_CHECK(StringFromBytes(d.payload) == "to-the-troupe");
      ++*out;
    }(s, &received));
  };
  spawn_receiver(&s1);
  spawn_receiver(&s2);

  ASSERT_TRUE(sender
                  .SendRaw(NetAddress{group, 9999},
                           BytesFromString("to-the-troupe"))
                  .ok());
  EXPECT_TRUE(runtime.RunUntil([&received] { return received == 2; },
                               Duration::Seconds(10)));
  // The non-member saw nothing.
  runtime.RunFor(Duration::Millis(50));
  EXPECT_EQ(outsider.queued(), 0u);
}

// --------------------------------------------------- wire parity golden --

// Deterministic endpoint configuration: no timer jitter, fixed seed, so
// the retransmission schedule is identical under virtual and wall time.
msg::EndpointOptions ParityOptions() {
  msg::EndpointOptions options;
  options.timer_jitter = 0;
  options.jitter_seed = 7;
  return options;
}

Task<void> ParityServerSide(msg::PairedEndpoint* server) {
  msg::Message call = co_await server->NextIncomingCall();
  Bytes reply = call.data;
  std::reverse(reply.begin(), reply.end());
  co_await server->SendMessage(call.peer, msg::MessageType::kReturn,
                               call.call_number, std::move(reply));
}

Task<void> ParityClientSide(msg::PairedEndpoint* client, NetAddress server,
                            bool* done) {
  circus::Status sent = co_await client->SendMessage(
      server, msg::MessageType::kCall, /*call_number=*/1,
      BytesFromString("parity golden payload"));
  CIRCUS_CHECK(sent.ok());
  circus::StatusOr<msg::Message> ret = co_await client->AwaitReturn(
      server, /*call_number=*/1);
  CIRCUS_CHECK(ret.ok());
  CIRCUS_CHECK(StringFromBytes(ret->data) == "daolyap nedlog ytirap");
  *done = true;
}

// The expected exchange (Section 4.2's ack strategy, jitter disabled):
// call data segment; return data segment (implicitly acks the call); one
// return retransmission with please_ack after the 300 ms timeout; the
// client's explicit ack. Four segments, in that order, on either fabric.
constexpr size_t kParitySegments = 4;

std::vector<Bytes> CollectSimulatedWire() {
  std::vector<Bytes> wire;
  net::World world(1, sim::SyscallCostModel::Free());
  world.bus().Subscribe([&wire](const obs::Event& e) {
    if (e.kind == obs::EventKind::kPacketSend) {
      wire.push_back(e.payload);
    }
  });
  sim::Host* client_host = world.AddHost("client");
  sim::Host* server_host = world.AddHost("server");
  DatagramSocket client_socket(&world.network(), client_host, 0);
  DatagramSocket server_socket(&world.network(), server_host, 9000);
  msg::PairedEndpoint client(&client_socket, ParityOptions());
  msg::PairedEndpoint server(&server_socket, ParityOptions());

  bool done = false;
  server_host->Spawn(ParityServerSide(&server));
  client_host->Spawn(
      ParityClientSide(&client, server.local_address(), &done));
  world.RunFor(Duration::Seconds(5));
  CIRCUS_CHECK(done);
  return wire;
}

std::vector<Bytes> CollectRealWire() {
  std::vector<Bytes> wire;
  Runtime runtime;
  runtime.bus().Subscribe([&wire](const obs::Event& e) {
    if (e.kind == obs::EventKind::kPacketSend) {
      wire.push_back(e.payload);
    }
  });
  sim::Host* client_host = runtime.AddHost("client");
  sim::Host* server_host = runtime.AddHost("server");
  DatagramSocket client_socket(&runtime.fabric(), client_host, 0);
  DatagramSocket server_socket(&runtime.fabric(), server_host, 0);
  msg::PairedEndpoint client(&client_socket, ParityOptions());
  msg::PairedEndpoint server(&server_socket, ParityOptions());

  bool done = false;
  server_host->Spawn(ParityServerSide(&server));
  client_host->Spawn(
      ParityClientSide(&client, server.local_address(), &done));
  const bool finished = runtime.RunUntil(
      [&done, &wire] { return done && wire.size() >= kParitySegments; },
      Duration::Seconds(10));
  CIRCUS_CHECK(finished);
  // Let any unexpected extra traffic surface before comparing.
  runtime.RunFor(Duration::Millis(100));
  return wire;
}

TEST(RtFabricTest, WireBytesMatchSimulatedNetwork) {
  const std::vector<Bytes> simulated = CollectSimulatedWire();
  const std::vector<Bytes> real = CollectRealWire();
  ASSERT_EQ(simulated.size(), kParitySegments);
  ASSERT_EQ(real.size(), kParitySegments);
  for (size_t i = 0; i < kParitySegments; ++i) {
    EXPECT_EQ(simulated[i], real[i]) << "segment " << i
                                     << " differs between fabrics";
  }
}

// ----------------------------------------- error paths, on both fabrics --

TEST(RtFabricTest, DoubleBindFailsOnBothFabrics) {
  {
    net::World world;
    sim::Host* host = world.AddHost("h");
    DatagramSocket first(&world.network(), host, 9000);
    auto second = DatagramSocket::Open(&world.network(), host, 9000);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), ErrorCode::kAlreadyExists);
  }
  {
    Runtime runtime;
    sim::Host* host = runtime.AddHost("h");
    auto first = DatagramSocket::Open(&runtime.fabric(), host, 0);
    ASSERT_TRUE(first.ok());
    auto second = DatagramSocket::Open(&runtime.fabric(), host,
                                       (*first)->local_address().port);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), ErrorCode::kAlreadyExists);
  }
}

TEST(RtFabricTest, SendOnClosedSocketFailsOnBothFabrics) {
  const Bytes payload = BytesFromString("late");
  {
    net::World world;
    sim::Host* host = world.AddHost("h");
    DatagramSocket socket(&world.network(), host, 9000);
    const NetAddress to{net::MakeHostAddress(0), 9001};
    socket.Close();
    EXPECT_EQ(socket.SendRaw(to, payload).code(),
              ErrorCode::kFailedPrecondition);
    circus::Status sent = circus::testing::RunTask(
        world.executor(), socket.Send(to, payload));
    EXPECT_EQ(sent.code(), ErrorCode::kFailedPrecondition);
  }
  {
    Runtime runtime;
    sim::Host* host = runtime.AddHost("h");
    DatagramSocket socket(&runtime.fabric(), host, 0);
    const NetAddress to{kLoopbackAddress, 9001};
    socket.Close();
    EXPECT_EQ(socket.SendRaw(to, payload).code(),
              ErrorCode::kFailedPrecondition);
    circus::Status sent = circus::testing::RunTask(
        runtime.executor(), socket.Send(to, payload));
    EXPECT_EQ(sent.code(), ErrorCode::kFailedPrecondition);
  }
}

TEST(RtFabricTest, EphemeralPortExhaustionFailsOnBothFabrics) {
  {
    net::World world;
    world.network().set_ephemeral_port_range(50000, 50002);
    sim::Host* host = world.AddHost("h");
    std::vector<std::unique_ptr<DatagramSocket>> sockets;
    for (int i = 0; i < 3; ++i) {
      auto socket = DatagramSocket::Open(&world.network(), host, 0);
      ASSERT_TRUE(socket.ok());
      sockets.push_back(std::move(*socket));
    }
    auto extra = DatagramSocket::Open(&world.network(), host, 0);
    ASSERT_FALSE(extra.ok());
    EXPECT_EQ(extra.status().code(), ErrorCode::kUnavailable);
  }
  {
    Runtime runtime;
    runtime.fabric().set_ephemeral_port_range(27211, 27213);
    sim::Host* host = runtime.AddHost("h");
    std::vector<std::unique_ptr<DatagramSocket>> sockets;
    for (int i = 0; i < 3; ++i) {
      auto socket = DatagramSocket::Open(&runtime.fabric(), host, 0);
      ASSERT_TRUE(socket.ok());
      sockets.push_back(std::move(*socket));
    }
    auto extra = DatagramSocket::Open(&runtime.fabric(), host, 0);
    ASSERT_FALSE(extra.ok());
    EXPECT_EQ(extra.status().code(), ErrorCode::kUnavailable);
  }
}

// rt processes started together must not walk the same ports, so each
// fabric's port-0 scan starts at its own offset into the range. The
// scan still wraps round: every port of the range is allocatable, and
// only then is a bind refused.
TEST(RtFabricTest, EphemeralScanFromAnOffsetStillCoversTheWholeRange) {
  constexpr net::Port kLo = 27231;
  constexpr net::Port kHi = 27238;
  Runtime runtime;
  runtime.fabric().set_ephemeral_port_range(kLo, kHi);
  runtime.fabric().set_ephemeral_scan_offset(5);
  sim::Host* host = runtime.AddHost("h");
  std::vector<std::unique_ptr<DatagramSocket>> sockets;
  std::vector<net::Port> ports;
  for (int i = 0; i <= kHi - kLo; ++i) {
    auto socket = DatagramSocket::Open(&runtime.fabric(), host, 0);
    ASSERT_TRUE(socket.ok()) << socket.status().ToString();
    ports.push_back((*socket)->local_address().port);
    sockets.push_back(std::move(*socket));
  }
  EXPECT_EQ(ports.front(), kLo + 5);
  std::sort(ports.begin(), ports.end());
  for (int i = 0; i <= kHi - kLo; ++i) {
    EXPECT_EQ(ports[i], kLo + i);
  }
  auto extra = DatagramSocket::Open(&runtime.fabric(), host, 0);
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), ErrorCode::kUnavailable);
}

// Datagrams the kernel drops at a full receive queue are counted per
// socket (SO_RXQ_OVFL) and surface in the stats and the metrics. The
// kernel reports the socket's drop total on the datagrams it queues
// after the drops, so the count shows once traffic resumes.
TEST(RtFabricTest, KernelReceiveQueueDropsAreCounted) {
  Runtime runtime;
  sim::Host* host = runtime.AddHost("h");
  DatagramSocket socket(&runtime.fabric(), host, 0);
  const int sender = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(sender, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(socket.local_address().host);
  to.sin_port = htons(socket.local_address().port);
  // The loop does not run while these go out, so the socket's receive
  // queue overflows.
  constexpr int kSends = 5000;
  const char payload[32] = {};
  const auto send = [&] {
    sendto(sender, payload, sizeof(payload), 0,
           reinterpret_cast<sockaddr*>(&to), sizeof(to));
  };
  for (int i = 0; i < kSends; ++i) {
    send();
  }
  runtime.RunFor(Duration::Millis(50));
  const UdpFabricStats& stats = runtime.fabric().stats();
  EXPECT_GT(stats.packets_delivered, 0u);
  EXPECT_LT(stats.packets_delivered, static_cast<uint64_t>(kSends));
  send();
  runtime.RunFor(Duration::Millis(50));
  close(sender);

  EXPECT_GT(stats.kernel_drops, 0u);
  EXPECT_LE(stats.packets_delivered + stats.kernel_drops,
            static_cast<uint64_t>(kSends) + 1);
  EXPECT_EQ(runtime.metrics().GetCounter("rt.socket.kernel_drops")->value(),
            stats.kernel_drops);
}

// Each fabric states its datagram limit, and the paired-message layer
// segments to it: the simulated Ethernet keeps the 1985 segment size,
// loopback carries 32 KiB segments, and an explicit smaller segment
// size still wins.
TEST(RtFabricTest, EndpointSegmentsToTheFabricLimit) {
  msg::EndpointOptions small;
  small.segment_data_bytes = 512;
  {
    net::World world;
    sim::Host* host = world.AddHost("h");
    EXPECT_EQ(world.network().MaxDatagramBytes(host->id()), 1500u);
    DatagramSocket socket(&world.network(), host, 0);
    const msg::PairedEndpoint by_default(&socket, {});
    const msg::PairedEndpoint capped(&socket, small);
    EXPECT_EQ(by_default.options().segment_data_bytes, 1024u);
    EXPECT_EQ(capped.options().segment_data_bytes, 512u);
  }
  {
    Runtime runtime;
    sim::Host* loopback = runtime.AddHost("lo");
    sim::Host* ethernet = runtime.AddHost("eth", 0x0A000001);  // 10.0.0.1
    EXPECT_EQ(runtime.fabric().MaxDatagramBytes(loopback->id()),
              kLoopbackDatagramBytes);
    EXPECT_EQ(runtime.fabric().MaxDatagramBytes(ethernet->id()),
              kEthernetDatagramBytes);
    DatagramSocket socket(&runtime.fabric(), loopback, 0);
    const msg::PairedEndpoint by_default(&socket, {});
    const msg::PairedEndpoint capped(&socket, small);
    EXPECT_EQ(by_default.options().segment_data_bytes, 32768u);
    EXPECT_EQ(capped.options().segment_data_bytes, 512u);
  }
}

}  // namespace
}  // namespace circus::rt
