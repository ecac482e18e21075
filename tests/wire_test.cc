// The fabric's packet events and the Section 4.2 wire auditor: packet
// events carry their datagrams into trace shards byte-identically per
// seed, decode back into segments, and replay against the paired-message
// protocol rules — every auditor check has a synthetic violation case
// here, and real protocol traffic must audit clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/msg/paired_endpoint.h"
#include "src/msg/segment.h"
#include "src/net/socket.h"
#include "src/net/world.h"
#include "src/obs/bus.h"
#include "src/obs/export.h"
#include "src/obs/shard.h"
#include "src/obs/wire.h"
#include "tests/test_util.h"

namespace circus::obs::wire {
namespace {

using msg::EndpointOptions;
using msg::MessageType;
using msg::PairedEndpoint;
using msg::Segment;
using net::DatagramSocket;
using net::NetAddress;
using net::World;
using sim::Duration;
using sim::SyscallCostModel;
using sim::Task;

const NetAddress kA{0x0A000001, 9000};
const NetAddress kB{0x0A000002, 9000};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ------------------------------------------------- synthetic events --

Segment Data(MessageType type, uint32_t call, uint8_t seg, uint8_t total,
             const std::string& payload, bool please_ack = false) {
  Segment s;
  s.type = type;
  s.please_ack = please_ack;
  s.total_segments = total;
  s.segment_number = seg;
  s.call_number = call;
  s.data = BytesFromString(payload);
  return s;
}

Segment Ack(MessageType type, uint32_t call, uint8_t k) {
  Segment s;
  s.type = type;
  s.ack = true;
  s.segment_number = k;
  s.call_number = call;
  return s;
}

Segment Probe(uint32_t call) {
  Segment s;
  s.type = MessageType::kCall;
  s.please_ack = true;
  s.segment_number = 0;
  s.call_number = call;
  return s;
}

uint64_t Pack(const NetAddress& address) {
  return PackAddress(address.host, address.port);
}

Event Packet(int64_t time_ns, bool send, NetAddress src, NetAddress dst,
             Bytes payload) {
  Event e;
  e.time_ns = time_ns;
  e.kind = send ? EventKind::kPacketSend : EventKind::kPacketDeliver;
  e.a = Pack(src);
  e.b = Pack(dst);
  e.c = payload.size();
  e.payload = std::move(payload);
  return e;
}

Event Pkt(int64_t ms, bool send, NetAddress src, NetAddress dst,
          const Segment& s) {
  return Packet(ms * 1'000'000, send, src, dst, s.Encode());
}

// Both sides of one transmission, as a whole-world bus sees it.
void Exchange(std::vector<Event>* events, int64_t ms, NetAddress src,
              NetAddress dst, const Segment& s) {
  events->push_back(Pkt(ms, /*send=*/true, src, dst, s));
  events->push_back(Pkt(ms + 1, /*send=*/false, src, dst, s));
}

AuditReport Audit(const std::vector<Event>& events,
                  const AuditOptions& options, bool complete = true) {
  WireAuditor auditor(options);
  for (const Event& e : events) {
    auditor.Observe(e, complete);
  }
  return auditor.Finish();
}

// One complete, legal call 7 from A to B: call data, return data (the
// implicit call ack), explicit return ack.
std::vector<Event> CleanConversation() {
  std::vector<Event> r;
  Exchange(&r, 0, kA, kB, Data(MessageType::kCall, 7, 1, 1, "args"));
  Exchange(&r, 10, kB, kA, Data(MessageType::kReturn, 7, 1, 1, "result"));
  Exchange(&r, 20, kA, kB, Ack(MessageType::kReturn, 7, 1));
  return r;
}

AuditOptions TestOptions() {
  AuditOptions o;
  o.retransmit_floor_ns = 100'000'000;  // 100ms
  o.probe_floor_ns = 500'000'000;       // 500ms
  o.max_silent_probes = 2;
  return o;
}

TEST(WireAudit, CleanConversationHasNoViolations) {
  AuditReport report = Audit(CleanConversation(), TestOptions());
  EXPECT_TRUE(report.violations.empty())
      << report.Render(/*max_violations=*/10, /*include_conversations=*/false);
  EXPECT_EQ(report.CompletedCalls(), 1u);
  EXPECT_TRUE(report.complete);
  const WireCost totals = report.Totals();
  EXPECT_EQ(totals.data_segments, 2u);   // one call + one return segment
  EXPECT_EQ(totals.retransmits, 0u);
  EXPECT_EQ(totals.acks_sent, 1u);
  EXPECT_EQ(totals.acks_received, 1u);
  // The return doubled as the call's ack: one explicit ack saved.
  EXPECT_EQ(totals.implicit_acks, 1u);
  // Caller view on A and callee view on B, both done.
  ASSERT_EQ(report.conversations.size(), 2u);
  EXPECT_EQ(report.conversations[0].node, kA);
  EXPECT_TRUE(report.conversations[0].caller);
  EXPECT_EQ(report.conversations[0].phase, Conversation::Phase::kDone);
  EXPECT_EQ(report.conversations[1].node, kB);
  EXPECT_FALSE(report.conversations[1].caller);
  EXPECT_EQ(report.conversations[1].phase, Conversation::Phase::kDone);
}

TEST(WireAudit, LaterCallImplicitlyAcksTheReturn) {
  std::vector<Event> r;
  Exchange(&r, 0, kA, kB, Data(MessageType::kCall, 7, 1, 1, "args"));
  Exchange(&r, 10, kB, kA, Data(MessageType::kReturn, 7, 1, 1, "result"));
  // No explicit ack: the next call (higher number) acknowledges it.
  Exchange(&r, 20, kA, kB, Data(MessageType::kCall, 8, 1, 1, "args2"));
  Exchange(&r, 30, kB, kA, Data(MessageType::kReturn, 8, 1, 1, "result2"));
  Exchange(&r, 40, kA, kB, Ack(MessageType::kReturn, 8, 1));
  AuditReport report = Audit(r, TestOptions());
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.CompletedCalls(), 2u);
  // Saved acks: both calls (their returns) plus return 7 (call 8).
  EXPECT_EQ(report.Totals().implicit_acks, 3u);
}

TEST(WireAudit, FlagsAckForUnsentSegment) {
  std::vector<Event> r = CleanConversation();
  // A claims to have received 3 segments of a 1-segment return.
  Exchange(&r, 30, kA, kB, Ack(MessageType::kReturn, 7, 3));
  AuditReport report = Audit(r, TestOptions());
  ASSERT_EQ(report.violations.size(), 2u) << report.Render();
  // Send side: A acks data it never received that much of.
  EXPECT_NE(report.violations[0].find("ack for unreceived data"),
            std::string::npos);
  // Receive side: B is acked for segments it never sent.
  EXPECT_NE(report.violations[1].find("ack for unsent segment"),
            std::string::npos);
}

TEST(WireAudit, AckZeroIsAlwaysLegal) {
  // Probing an unknown call is answered with ack 0 (Section 4.2.3).
  std::vector<Event> r;
  Exchange(&r, 0, kA, kB, Probe(99));
  Exchange(&r, 10, kB, kA, Ack(MessageType::kCall, 99, 0));
  AuditReport report = Audit(r, TestOptions());
  EXPECT_TRUE(report.violations.empty()) << report.Render();
}

TEST(WireAudit, FlagsRetransmitBeforeTimeout) {
  std::vector<Event> r;
  const Segment seg = Data(MessageType::kCall, 7, 1, 1, "args");
  Exchange(&r, 0, kA, kB, seg);
  Exchange(&r, 10, kA, kB, seg);  // 10ms < the 100ms floor
  AuditReport report = Audit(r, TestOptions());
  ASSERT_EQ(report.violations.size(), 1u) << report.Render();
  EXPECT_NE(report.violations[0].find("retransmit before timeout"),
            std::string::npos);

  // The same retransmission past the floor is legal.
  std::vector<Event> ok;
  Exchange(&ok, 0, kA, kB, seg);
  Exchange(&ok, 150, kA, kB, seg);
  AuditReport legal = Audit(ok, TestOptions());
  EXPECT_TRUE(legal.violations.empty());
  EXPECT_EQ(legal.Totals().retransmits, 1u);
}

TEST(WireAudit, MulticastBlastThenUnicastFallbackIsNotReuse) {
  // The core resends the same call segments unicast after a multicast
  // blast (Section 4.3.7 fallback); same bytes to a different
  // destination must not count as retransmit-before-timeout or reuse.
  const NetAddress group{0xE0000001, 9000};
  std::vector<Event> r;
  const Segment seg = Data(MessageType::kCall, 7, 1, 1, "args");
  r.push_back(Pkt(0, /*send=*/true, kA, group, seg));
  r.push_back(Pkt(1, /*send=*/false, kA, kB, seg));  // delivered to B
  Exchange(&r, 5, kA, kB, seg);  // unicast fallback, well inside 100ms
  AuditReport report = Audit(r, TestOptions());
  // The fallback is a retransmission of the blast toward B only if keyed
  // per destination; spacing starts at the first unicast send.
  EXPECT_TRUE(report.violations.empty()) << report.Render();
}

TEST(WireAudit, FlagsReturnBeforeCallFullyArrived) {
  std::vector<Event> r;
  // B only ever saw segment 1 of a 2-segment call, yet returns.
  Exchange(&r, 0, kA, kB, Data(MessageType::kCall, 7, 1, 2, "hal"));
  Exchange(&r, 10, kB, kA, Data(MessageType::kReturn, 7, 1, 1, "result"));
  AuditReport report = Audit(r, TestOptions());
  ASSERT_EQ(report.violations.size(), 1u) << report.Render();
  EXPECT_NE(report.violations[0].find("sequence gap at delivery"),
            std::string::npos);
}

TEST(WireAudit, FlagsCallNumberReuseWithDifferentPayload) {
  std::vector<Event> r;
  Exchange(&r, 0, kA, kB, Data(MessageType::kCall, 7, 1, 1, "first"));
  Exchange(&r, 200, kA, kB, Data(MessageType::kCall, 7, 1, 1, "other"));
  AuditReport report = Audit(r, TestOptions());
  ASSERT_EQ(report.violations.size(), 1u) << report.Render();
  EXPECT_NE(report.violations[0].find("identifier reuse"),
            std::string::npos);
}

TEST(WireAudit, FlagsProbeFasterThanInterval) {
  std::vector<Event> r;
  Exchange(&r, 0, kA, kB, Data(MessageType::kCall, 7, 1, 1, "args"));
  Exchange(&r, 100, kA, kB, Probe(7));
  Exchange(&r, 150, kA, kB, Probe(7));  // 50ms < the 500ms floor
  AuditReport report = Audit(r, TestOptions());
  ASSERT_GE(report.violations.size(), 1u) << report.Render();
  EXPECT_NE(report.violations[0].find("probe storm"), std::string::npos);
}

TEST(WireAudit, FlagsMoreSilentProbesThanTheBudget) {
  // max_silent_probes = 2 (+1 audit tolerance): by the 4th unanswered
  // probe the sender should have declared B crashed and stopped.
  std::vector<Event> r;
  Exchange(&r, 0, kA, kB, Data(MessageType::kCall, 7, 1, 1, "args"));
  for (int i = 0; i < 5; ++i) {
    r.push_back(Pkt(600 + i * 600, /*send=*/true, kA, kB, Probe(7)));
  }
  AuditReport report = Audit(r, TestOptions());
  ASSERT_EQ(report.violations.size(), 1u) << report.Render();
  EXPECT_NE(report.violations[0].find("consecutive unanswered probes"),
            std::string::npos);

  // Answered probes never trip the budget.
  std::vector<Event> ok;
  Exchange(&ok, 0, kA, kB, Data(MessageType::kCall, 7, 1, 1, "args"));
  for (int i = 0; i < 5; ++i) {
    ok.push_back(Pkt(600 + i * 600, /*send=*/true, kA, kB, Probe(7)));
    ok.push_back(Pkt(900 + i * 600, /*send=*/false, kB, kA,
                     Ack(MessageType::kCall, 7, 1)));
  }
  AuditReport legal = Audit(ok, TestOptions());
  EXPECT_TRUE(legal.violations.empty()) << legal.Render();
}

TEST(WireAudit, FlagsMemberToMemberPackets) {
  AuditOptions options = TestOptions();
  options.member_addresses = {kA, kB};
  std::vector<Event> r;
  Exchange(&r, 0, kA, kB, Data(MessageType::kCall, 7, 1, 1, "pssst"));
  Exchange(&r, 200, kA, kB, Data(MessageType::kCall, 8, 1, 1, "again"));
  AuditReport report = Audit(r, options);
  // Deduplicated per (src, dst) pair.
  ASSERT_EQ(report.violations.size(), 1u) << report.Render();
  EXPECT_NE(report.violations[0].find("member-to-member"),
            std::string::npos);
}

TEST(WireAudit, IncompleteCaptureSkipsCompletenessChecks) {
  // The same gap-at-delivery records as above, from a capture that
  // recorded drops: the call's missing segment may simply be missing
  // from the capture, so the auditor must stay quiet...
  std::vector<Event> r;
  Exchange(&r, 0, kA, kB, Data(MessageType::kCall, 7, 1, 2, "hal"));
  Exchange(&r, 10, kB, kA, Data(MessageType::kReturn, 7, 1, 1, "result"));
  AuditReport gaps = Audit(r, TestOptions(), /*complete=*/false);
  EXPECT_TRUE(gaps.violations.empty()) << gaps.Render();
  EXPECT_FALSE(gaps.complete);

  // ...while drop-tolerant checks (spacing, reuse) still fire: a
  // dropped record never makes two sends closer together.
  std::vector<Event> fast;
  const Segment seg = Data(MessageType::kCall, 7, 1, 1, "args");
  Exchange(&fast, 0, kA, kB, seg);
  Exchange(&fast, 10, kA, kB, seg);
  AuditReport spacing = Audit(fast, TestOptions(), /*complete=*/false);
  ASSERT_EQ(spacing.violations.size(), 1u);
}

TEST(WireAudit, RenderIsDeterministic) {
  std::vector<Event> r = CleanConversation();
  Exchange(&r, 30, kA, kB, Ack(MessageType::kReturn, 7, 3));
  const std::string once = Audit(r, TestOptions()).Render();
  const std::string twice = Audit(r, TestOptions()).Render();
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("wire audit:"), std::string::npos);
}

TEST(WireDecode, AttributesNodeAndCountsUndecodable) {
  std::vector<Event> r;
  r.push_back(Pkt(0, /*send=*/true, kA, kB,
                  Data(MessageType::kCall, 7, 1, 1, "x")));
  r.push_back(Pkt(1, /*send=*/false, kA, kB,
                  Data(MessageType::kCall, 7, 1, 1, "x")));
  // A stats-endpoint text reply is a packet but not a segment.
  r.push_back(Packet(2, /*send=*/true, kA, kB, BytesFromString("metrics")));
  // Other event kinds are not packets at all.
  Event other;
  other.kind = EventKind::kCallIssue;
  other.payload = Pkt(3, true, kA, kB, Data(MessageType::kCall, 8, 1, 1, "y"))
                      .payload;
  r.push_back(other);

  const std::optional<WireSegment> sent = DecodePacket(r[0]);
  const std::optional<WireSegment> delivered = DecodePacket(r[1]);
  ASSERT_TRUE(sent.has_value());
  ASSERT_TRUE(delivered.has_value());
  EXPECT_FALSE(DecodePacket(r[2]).has_value());
  EXPECT_FALSE(DecodePacket(r[3]).has_value());
  EXPECT_TRUE(sent->send);
  EXPECT_EQ(sent->node, kA);  // sender's view
  EXPECT_EQ(sent->remote, kB);
  EXPECT_EQ(sent->bytes, r[0].payload.size());
  EXPECT_FALSE(delivered->send);
  EXPECT_EQ(delivered->node, kB);  // receiver's view
  EXPECT_EQ(delivered->remote, kA);
  EXPECT_EQ(delivered->time_ns, 1'000'000);

  // The auditor counts the non-segment packet and ignores the rest.
  AuditReport report = Audit(r, TestOptions());
  EXPECT_EQ(report.records, 3u);
  EXPECT_EQ(report.packets, 2u);
  EXPECT_EQ(report.undecodable, 1u);
}

TEST(WireAudit, AuditOptionsForStaysBelowMinimumJitteredTimer) {
  EndpointOptions endpoint;  // jitter 0.1, retransmit 300ms, probe 1s
  AuditOptions o = AuditOptionsFor(endpoint);
  EXPECT_LT(o.retransmit_floor_ns,
            static_cast<int64_t>(endpoint.retransmit_interval.nanos() * 0.9));
  EXPECT_GT(o.retransmit_floor_ns,
            static_cast<int64_t>(endpoint.retransmit_interval.nanos() * 0.8));
  EXPECT_LT(o.probe_floor_ns,
            static_cast<int64_t>(endpoint.probe_interval.nanos() * 0.9));
  EXPECT_EQ(o.max_silent_probes, endpoint.max_silent_probes);
}

// ------------------------------------------- packet events + shards --

ShardInfo SimShardInfo() {
  ShardInfo info;
  info.node = "world";
  info.role = "test";
  info.clock = "sim";
  return info;
}

// Runs one sim exchange (three calls, one multi-segment) on `world`,
// whose bus observers are already attached.
void RunExchange(World* world) {
  sim::Host* client_host = world->AddHost("client");
  sim::Host* server_host = world->AddHost("server");
  DatagramSocket client_socket(&world->network(), client_host, 9000);
  DatagramSocket server_socket(&world->network(), server_host, 9000);
  PairedEndpoint client(&client_socket, {});
  PairedEndpoint server(&server_socket, {});
  server_host->Spawn([](PairedEndpoint* ep) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      msg::Message m = co_await ep->NextIncomingCall();
      co_await ep->SendMessage(m.peer, MessageType::kReturn, m.call_number,
                               m.data);
    }
  }(&server));
  world->executor().Spawn([](PairedEndpoint* ep, NetAddress to) -> Task<void> {
    for (uint32_t call = 1; call <= 3; ++call) {
      Bytes payload = call == 2 ? Bytes(3000, 'q')
                                : BytesFromString("ping");
      Status s = co_await ep->SendMessage(to, MessageType::kCall, call,
                                          std::move(payload));
      CIRCUS_CHECK(s.ok());
      auto m = co_await ep->AwaitReturn(to, call);
      CIRCUS_CHECK(m.ok());
    }
  }(&client, server_socket.local_address()));
  // Long enough for the final return's explicit ack round.
  world->RunFor(Duration::Seconds(3));
}

// Runs the exchange with a shard writer on the World's bus; returns the
// shard path.
std::string RunTracedExchange(uint64_t seed, const std::string& name) {
  const std::string path = TempPath(name);
  World world(seed, SyscallCostModel::Free());
  ShardWriter shard(path, SimShardInfo());
  shard.Attach(&world.bus());
  RunExchange(&world);
  shard.Detach();
  CIRCUS_CHECK(shard.Flush().ok());
  return path;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

size_t CountPackets(const std::vector<Event>& events) {
  size_t n = 0;
  for (const Event& e : events) {
    n += IsPacketEvent(e.kind) ? 1 : 0;
  }
  return n;
}

TEST(WireTap, SimCaptureRoundTripsAuditsCleanAndIsDeterministic) {
  const std::string path_a = RunTracedExchange(1234, "cap_a.trace.jsonl");
  const std::string path_b = RunTracedExchange(1234, "cap_b.trace.jsonl");
  // Acceptance: the same seed writes a byte-identical shard.
  EXPECT_EQ(Slurp(path_a), Slurp(path_b));

  circus::StatusOr<ShardFile> shard = ReadShardFile(path_a);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ(shard->info.node, "world");
  EXPECT_EQ(shard->info.clock, "sim");
  EXPECT_EQ(shard->dropped, 0u);
  EXPECT_TRUE(shard->complete());
  // Every datagram appears in both directions (nothing dropped in sim
  // with the default fault-free plan), beside the endpoints' own events.
  EXPECT_GT(CountPackets(shard->events), 10u);
  EXPECT_GT(shard->events.size(), CountPackets(shard->events));

  WireAuditor auditor(AuditOptionsFor(EndpointOptions{}));
  auditor.AddShard(*shard);
  AuditReport report = auditor.Finish();
  EXPECT_TRUE(report.violations.empty())
      << report.Render(/*max_violations=*/10, /*include_conversations=*/false);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.CompletedCalls(), 3u);
  EXPECT_EQ(report.undecodable, 0u);
  EXPECT_EQ(report.records, CountPackets(shard->events));
  // The 3000-byte call needed three data segments.
  EXPECT_GE(report.Totals().data_segments, 8u);

  // The same events audited twice render byte-identically.
  WireAuditor again(AuditOptionsFor(EndpointOptions{}));
  again.AddShard(*shard);
  EXPECT_EQ(report.Render(), again.Finish().Render());
}

TEST(WireTap, LiveBusAuditMatchesShardAudit) {
  // The same exchange audited live off the bus and from its shard.
  const std::string path = RunTracedExchange(77, "live.trace.jsonl");
  circus::StatusOr<AuditReport> from_shard =
      AuditShardFiles({path}, AuditOptionsFor(EndpointOptions{}));
  ASSERT_TRUE(from_shard.ok());

  World world(77, SyscallCostModel::Free());
  WireAuditor live(AuditOptionsFor(EndpointOptions{}));
  live.Attach(&world.bus());
  RunExchange(&world);
  live.Detach();
  EXPECT_EQ(live.Finish().Render(), from_shard->Render());
}

TEST(WireTap, DeliveryRecordsNameTheReceivingSocket) {
  World world(9, SyscallCostModel::Free());
  sim::Host* a = world.AddHost("a");
  sim::Host* b = world.AddHost("b");
  sim::Host* c = world.AddHost("c");
  EventLog log(&world.bus());
  DatagramSocket sa(&world.network(), a, 9000);
  DatagramSocket sb(&world.network(), b, 9000);
  DatagramSocket sc(&world.network(), c, 9000);
  const net::HostAddress group = net::MakeMulticastAddress(0);
  sb.JoinGroup(group);
  sc.JoinGroup(group);
  a->Spawn([](DatagramSocket* s, NetAddress to, NetAddress g) -> Task<void> {
    co_await s->Send(to, BytesFromString("hello"));
    co_await s->Send(g, BytesFromString("all"));
  }(&sa, sb.local_address(), NetAddress{group, 9000}));
  world.RunFor(Duration::Millis(100));

  std::vector<Event> sends;
  std::vector<Event> deliveries;
  for (const Event& e : log.events()) {
    if (e.kind == EventKind::kPacketSend) {
      sends.push_back(e);
    } else if (e.kind == EventKind::kPacketDeliver) {
      deliveries.push_back(e);
    }
  }
  // Unicast: one send, one delivery; multicast: one send, two deliveries.
  ASSERT_EQ(sends.size(), 2u);
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(sends[0].host, static_cast<uint32_t>(a->id()));
  EXPECT_EQ(sends[0].b, Pack(sb.local_address()));
  EXPECT_EQ(sends[1].b, Pack(NetAddress{group, 9000}));  // as addressed

  std::vector<uint64_t> group_receivers;
  for (const Event& e : deliveries) {
    EXPECT_EQ(e.a, Pack(sa.local_address()));
    if (StringFromBytes(e.payload) == "hello") {
      EXPECT_EQ(e.host, static_cast<uint32_t>(b->id()));
      EXPECT_EQ(e.b, Pack(sb.local_address()));
      EXPECT_EQ(e.c, 5u);
    } else {
      EXPECT_EQ(StringFromBytes(e.payload), "all");
      group_receivers.push_back(e.b);
    }
  }
  std::sort(group_receivers.begin(), group_receivers.end());
  std::vector<uint64_t> expected{Pack(sb.local_address()),
                                 Pack(sc.local_address())};
  std::sort(expected.begin(), expected.end());
  // Each multicast delivery names the receiving socket, not the group.
  EXPECT_EQ(group_receivers, expected);
}

TEST(WireTap, RingOverflowCountsDropsAndMarksCaptureIncomplete) {
  const std::string path = TempPath("overflow.trace.jsonl");
  World world(5, SyscallCostModel::Free());
  sim::Host* a = world.AddHost("a");
  sim::Host* b = world.AddHost("b");
  ShardWriter shard(path, SimShardInfo(), /*capacity=*/4);
  shard.Attach(&world.bus());
  DatagramSocket sa(&world.network(), a, 9000);
  DatagramSocket sb(&world.network(), b, 9000);
  a->Spawn([](DatagramSocket* s, NetAddress to) -> Task<void> {
    for (int i = 0; i < 20; ++i) {
      co_await s->Send(to, BytesFromString("spam"));
    }
  }(&sa, sb.local_address()));
  world.RunFor(Duration::Millis(200));
  shard.Detach();
  EXPECT_GT(shard.dropped(), 0u);
  EXPECT_EQ(shard.observed(), 40u);  // 20 sends + 20 deliveries
  // Packets go to the file only, never to the recent ring.
  EXPECT_TRUE(shard.Recent().empty());
  ASSERT_TRUE(shard.Flush().ok());

  circus::StatusOr<ShardFile> file = ReadShardFile(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->events.size() + file->dropped, shard.observed());
  EXPECT_EQ(file->dropped, shard.dropped());
  EXPECT_FALSE(file->complete());

  WireAuditor auditor(TestOptions());
  auditor.AddShard(*file);
  EXPECT_FALSE(auditor.Finish().complete);
}

TEST(WireTap, ReaderToleratesTruncatedTail) {
  const std::string path = RunTracedExchange(42, "truncated.trace.jsonl");
  std::string text = Slurp(path);
  ASSERT_GT(text.size(), 40u);
  text.resize(text.size() - 25);  // crash mid-line
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  circus::StatusOr<ShardFile> shard = ReadShardFile(path);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_TRUE(shard->truncated_tail);
  EXPECT_FALSE(shard->complete());
  EXPECT_GT(CountPackets(shard->events), 0u);

  WireAuditor auditor(AuditOptionsFor(EndpointOptions{}));
  auditor.AddShard(*shard);
  EXPECT_FALSE(auditor.Finish().complete);
}

TEST(WireTap, ReaderRejectsForeignFiles) {
  const std::string path = TempPath("foreign.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"not\":\"a shard\"}\n";
  }
  EXPECT_FALSE(ReadShardFile(path).ok());
  EXPECT_FALSE(ReadShardFile(TempPath("missing.jsonl")).ok());
  EXPECT_FALSE(AuditShardFiles({path}, TestOptions()).ok());
}

TEST(WireTap, JsonLineRoundTripsOneRecord) {
  for (const bool send : {true, false}) {
    Event p = Packet(123456789, send, kA, kB, {0x00, 0xFF, 0x10, 0x7A});
    p.host = 3;
    const json::Value json = EventToJson(p);
    const std::string line = json.Dump();
    EXPECT_NE(line.find(send ? "\"packet_send\"" : "\"packet_deliver\""),
              std::string::npos);
    EXPECT_NE(line.find("\"data\":\"00ff107a\""), std::string::npos);
    EXPECT_EQ(line.find("payload_bytes"), std::string::npos);

    Event back;
    ASSERT_TRUE(EventFromJson(json, &back));
    EXPECT_EQ(back.kind, p.kind);
    EXPECT_EQ(back.time_ns, p.time_ns);
    EXPECT_EQ(back.host, p.host);
    EXPECT_EQ(back.a, p.a);
    EXPECT_EQ(back.b, p.b);
    EXPECT_EQ(back.c, p.c);
    EXPECT_EQ(back.payload, p.payload);  // byte-exact
    EXPECT_EQ(EventToJson(back).Dump(), line);
  }

  // Other kinds still export only the payload's size.
  Event call;
  call.time_ns = 5;
  call.kind = EventKind::kCallIssue;
  call.payload = {0x01, 0x02};
  const std::string line = EventToJson(call).Dump();
  EXPECT_NE(line.find("\"payload_bytes\":2"), std::string::npos);
  EXPECT_EQ(line.find("\"data\""), std::string::npos);

  // A packet line whose data is missing or not hex is not an event.
  Event ignored;
  for (const char* bad : {R"({"t_ns":1,"kind":"packet_send","c":1})",
                          R"({"t_ns":1,"kind":"packet_send","data":"zz"})"}) {
    circus::StatusOr<json::Value> parsed = json::Parse(bad);
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(EventFromJson(*parsed, &ignored)) << bad;
  }
}

}  // namespace
}  // namespace circus::obs::wire
