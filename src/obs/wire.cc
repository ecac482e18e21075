#include "src/obs/wire.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace circus::obs::wire {

namespace {

const char* TypeName(msg::MessageType type) {
  return type == msg::MessageType::kCall ? "call" : "return";
}

const char* PhaseName(Conversation::Phase phase) {
  switch (phase) {
    case Conversation::Phase::kCalling:
      return "calling";
    case Conversation::Phase::kCallDelivered:
      return "call-delivered";
    case Conversation::Phase::kReturning:
      return "returning";
    case Conversation::Phase::kDone:
      return "done";
  }
  return "?";
}

void AdvancePhase(Conversation& conversation, Conversation::Phase to) {
  if (static_cast<int>(to) > static_cast<int>(conversation.phase)) {
    conversation.phase = to;
  }
}

void NoteRemote(Conversation& conversation, const net::NetAddress& remote) {
  auto it = std::lower_bound(conversation.remotes.begin(),
                             conversation.remotes.end(), remote);
  if (it == conversation.remotes.end() || *it != remote) {
    conversation.remotes.insert(it, remote);
  }
}

// The destination component of the sent-message key: one shared key
// for calls (multicast blast + unicast fallback carry the same logical
// message), the real destination for returns (distinct peers' call
// numbers could collide at one callee).
net::NetAddress SentKeyDest(msg::MessageType type,
                            const net::NetAddress& dest) {
  return type == msg::MessageType::kCall ? net::NetAddress{} : dest;
}

}  // namespace

AuditOptions AuditOptionsFor(const msg::EndpointOptions& options) {
  AuditOptions a;
  const double lo = (1.0 - options.timer_jitter) * 0.95;
  a.retransmit_floor_ns = static_cast<int64_t>(
      static_cast<double>(options.retransmit_interval.nanos()) * lo);
  a.probe_floor_ns = static_cast<int64_t>(
      static_cast<double>(options.probe_interval.nanos()) * lo);
  a.max_silent_probes = options.max_silent_probes;
  return a;
}

std::optional<WireSegment> DecodePacket(const Event& event) {
  if (!IsPacketEvent(event.kind)) {
    return std::nullopt;
  }
  std::optional<msg::Segment> seg = msg::Segment::Decode(event.payload);
  if (!seg.has_value()) {
    return std::nullopt;
  }
  const net::NetAddress source{PackedAddressHost(event.a),
                               PackedAddressPort(event.a)};
  const net::NetAddress destination{PackedAddressHost(event.b),
                                    PackedAddressPort(event.b)};
  WireSegment ws;
  ws.time_ns = event.time_ns;
  ws.send = event.kind == EventKind::kPacketSend;
  ws.bytes = event.payload.size();
  ws.segment = *std::move(seg);
  ws.node = ws.send ? source : destination;
  ws.remote = ws.send ? destination : source;
  return ws;
}

WireCost AuditReport::Totals() const {
  WireCost total;
  for (const Conversation& c : conversations) {
    total.packets_sent += c.cost.packets_sent;
    total.packets_received += c.cost.packets_received;
    total.bytes_sent += c.cost.bytes_sent;
    total.bytes_received += c.cost.bytes_received;
    total.data_segments += c.cost.data_segments;
    total.retransmits += c.cost.retransmits;
    total.probes += c.cost.probes;
    total.acks_sent += c.cost.acks_sent;
    total.acks_received += c.cost.acks_received;
    total.implicit_acks += c.cost.implicit_acks;
  }
  return total;
}

size_t AuditReport::CompletedCalls() const {
  size_t n = 0;
  for (const Conversation& c : conversations) {
    if (c.caller && c.phase == Conversation::Phase::kDone) {
      ++n;
    }
  }
  return n;
}

std::string AuditReport::Render(size_t max_violations,
                                bool include_conversations) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "wire audit: %zu violation(s), %zu call(s) completed, "
                "%" PRIu64 " packets, %" PRIu64 " bytes%s\n",
                violations.size(), CompletedCalls(), packets, bytes,
                complete ? "" : " [capture incomplete]");
  out += line;
  const WireCost t = Totals();
  std::snprintf(line, sizeof(line),
                "totals: data=%" PRIu64 " retx=%" PRIu64 " probes=%" PRIu64
                " acks_tx=%" PRIu64 " acks_rx=%" PRIu64 " implicit=%" PRIu64
                " undecodable=%" PRIu64 " records=%" PRIu64 "\n",
                t.data_segments, t.retransmits, t.probes, t.acks_sent,
                t.acks_received, t.implicit_acks, undecodable, records);
  out += line;
  for (size_t i = 0; i < violations.size() && i < max_violations; ++i) {
    out += "violation: ";
    out += violations[i];
    out += '\n';
  }
  if (violations.size() > max_violations) {
    std::snprintf(line, sizeof(line), "violation: (+%zu more)\n",
                  violations.size() - max_violations);
    out += line;
  }
  if (!include_conversations) {
    return out;
  }
  for (const Conversation& c : conversations) {
    std::snprintf(line, sizeof(line),
                  "%s %s %" PRIu32 " %s peers=%zu tx=%" PRIu64 "pkt/%" PRIu64
                  "B rx=%" PRIu64 "pkt/%" PRIu64 "B data=%" PRIu64
                  " retx=%" PRIu64 " probes=%" PRIu64 " acks_tx=%" PRIu64
                  " acks_rx=%" PRIu64 " implicit=%" PRIu64 "\n",
                  c.node.ToString().c_str(), c.caller ? "call" : "serve",
                  c.call_number, PhaseName(c.phase), c.remotes.size(),
                  c.cost.packets_sent, c.cost.bytes_sent,
                  c.cost.packets_received, c.cost.bytes_received,
                  c.cost.data_segments, c.cost.retransmits, c.cost.probes,
                  c.cost.acks_sent, c.cost.acks_received,
                  c.cost.implicit_acks);
    out += line;
  }
  return out;
}

WireAuditor::WireAuditor(AuditOptions options)
    : options_(std::move(options)) {
  for (const net::NetAddress& m : options_.member_addresses) {
    members_.insert(m);
  }
}

Conversation& WireAuditor::ConversationFor(NodeState& state,
                                           const net::NetAddress& node,
                                           const WireSegment& ws,
                                           bool caller) {
  Conversation& c =
      state.conversations[{ws.segment.call_number, caller}];
  if (c.remotes.empty() && c.call_number == 0 && c.cost.packets_sent == 0 &&
      c.cost.packets_received == 0) {
    c.node = node;
    c.call_number = ws.segment.call_number;
    c.caller = caller;
  }
  NoteRemote(c, ws.remote);
  if (ws.send) {
    ++c.cost.packets_sent;
    c.cost.bytes_sent += ws.bytes;
  } else {
    ++c.cost.packets_received;
    c.cost.bytes_received += ws.bytes;
  }
  return c;
}

void WireAuditor::AddViolation(const WireSegment& ws,
                               const std::string& what) {
  char prefix[96];
  std::snprintf(prefix, sizeof(prefix), "%s t=%" PRId64 "ns ",
                ws.node.ToString().c_str(), ws.time_ns);
  report_.violations.push_back(prefix + what);
}

void WireAuditor::ObserveSendRecord(NodeState& state, const WireSegment& ws) {
  const msg::Segment& seg = ws.segment;
  const int64_t t = ws.time_ns;
  char buf[192];

  if (!members_.empty() && members_.count(ws.node) != 0 &&
      members_.count(ws.remote) != 0 &&
      member_pairs_seen_.insert({ws.node, ws.remote}).second) {
    std::snprintf(buf, sizeof(buf), "member-to-member packet to %s",
                  ws.remote.ToString().c_str());
    AddViolation(ws, buf);
  }

  if (seg.ack) {
    // Caller view acks returns; callee view acks calls.
    Conversation& c = ConversationFor(
        state, ws.node, ws, seg.type == msg::MessageType::kReturn);
    ++c.cost.acks_sent;
    const uint8_t k = seg.segment_number;
    if (k > 0 && state.complete) {
      auto it = state.received.find(
          {ws.remote, static_cast<int>(seg.type), seg.call_number});
      const bool have_prefix = [&] {
        if (it == state.received.end()) {
          return false;
        }
        for (uint8_t s = 1; s <= k; ++s) {
          if (it->second.segments.count(s) == 0) {
            return false;
          }
        }
        return true;
      }();
      if (!have_prefix) {
        std::snprintf(buf, sizeof(buf),
                      "ack for unreceived data: acks %u of %s %" PRIu32
                      " from %s (received %zu segment(s))",
                      static_cast<unsigned>(k), TypeName(seg.type),
                      seg.call_number, ws.remote.ToString().c_str(),
                      it == state.received.end() ? size_t{0}
                                                 : it->second.segments.size());
        AddViolation(ws, buf);
      }
    }
    return;
  }

  if (seg.is_probe()) {
    Conversation& c = ConversationFor(state, ws.node, ws, /*caller=*/true);
    ++c.cost.probes;
    ProbeState& probe = state.probes[{ws.remote, seg.call_number}];
    if (probe.last_ns != 0 && options_.probe_floor_ns > 0 &&
        t - probe.last_ns < options_.probe_floor_ns) {
      std::snprintf(buf, sizeof(buf),
                    "probe storm: probe for call %" PRIu32
                    " to %s after %" PRId64 "ns (floor %" PRId64 "ns)",
                    seg.call_number, ws.remote.ToString().c_str(),
                    t - probe.last_ns, options_.probe_floor_ns);
      AddViolation(ws, buf);
    }
    if (state.complete) {
      auto heard = state.last_heard.find(ws.remote);
      const bool heard_since_last_probe =
          heard != state.last_heard.end() &&
          (probe.last_ns == 0 || heard->second > probe.last_ns);
      probe.silent_streak =
          heard_since_last_probe ? 1 : probe.silent_streak + 1;
      // +1 tolerance: the endpoint's "recent activity" window is the
      // probe interval, not exactly the last-probe boundary we track.
      if (probe.silent_streak > options_.max_silent_probes + 1 &&
          !probe.storm_flagged) {
        probe.storm_flagged = true;
        std::snprintf(buf, sizeof(buf),
                      "probe storm: %d consecutive unanswered probes for "
                      "call %" PRIu32 " to %s (budget %d)",
                      probe.silent_streak, seg.call_number,
                      ws.remote.ToString().c_str(),
                      options_.max_silent_probes);
        AddViolation(ws, buf);
      }
    }
    probe.last_ns = t;
    return;
  }

  // Data segment.
  Conversation& c = ConversationFor(state, ws.node, ws,
                                    seg.type == msg::MessageType::kCall);
  SentMessage& sent =
      state.sent[{static_cast<int>(seg.type), seg.call_number,
                  SentKeyDest(seg.type, ws.remote)}];
  if (sent.total_segments == 0) {
    sent.total_segments = seg.total_segments;
  } else if (sent.total_segments != seg.total_segments) {
    std::snprintf(buf, sizeof(buf),
                  "identifier reuse: %s %" PRIu32
                  " re-sent with a different segment count (%u vs %u)",
                  TypeName(seg.type), seg.call_number,
                  static_cast<unsigned>(seg.total_segments),
                  static_cast<unsigned>(sent.total_segments));
    AddViolation(ws, buf);
  }
  auto payload = sent.payloads.find(seg.segment_number);
  if (payload == sent.payloads.end()) {
    sent.payloads[seg.segment_number] = seg.data;
    ++c.cost.data_segments;
  } else if (payload->second != seg.data) {
    std::snprintf(buf, sizeof(buf),
                  "identifier reuse: %s %" PRIu32 " segment %u to %s "
                  "re-sent with different payload",
                  TypeName(seg.type), seg.call_number,
                  static_cast<unsigned>(seg.segment_number),
                  ws.remote.ToString().c_str());
    AddViolation(ws, buf);
  }
  uint8_t& max_sent =
      state.max_sent[{static_cast<int>(seg.type), seg.call_number}];
  max_sent = std::max(max_sent, seg.segment_number);

  const auto send_key = std::make_tuple(ws.remote,
                                        static_cast<int>(seg.type),
                                        seg.call_number, seg.segment_number);
  auto last = state.last_send.find(send_key);
  if (last != state.last_send.end()) {
    ++c.cost.retransmits;
    if (options_.retransmit_floor_ns > 0 &&
        t - last->second < options_.retransmit_floor_ns) {
      std::snprintf(buf, sizeof(buf),
                    "retransmit before timeout: %s %" PRIu32
                    " segment %u to %s after %" PRId64 "ns (floor %" PRId64
                    "ns)",
                    TypeName(seg.type), seg.call_number,
                    static_cast<unsigned>(seg.segment_number),
                    ws.remote.ToString().c_str(), t - last->second,
                    options_.retransmit_floor_ns);
      AddViolation(ws, buf);
    }
    last->second = t;
  } else {
    state.last_send[send_key] = t;
  }

  if (seg.type == msg::MessageType::kReturn && state.complete &&
      c.phase == Conversation::Phase::kCalling) {
    // First return activity from this node: the full call must have
    // arrived (Section 4.2 delivery ordering — a gap at delivery).
    auto call = state.received.find(
        {ws.remote, static_cast<int>(msg::MessageType::kCall),
         seg.call_number});
    if (call == state.received.end() || !call->second.Complete()) {
      std::snprintf(
          buf, sizeof(buf),
          "sequence gap at delivery: return %" PRIu32
          " sent to %s before the call fully arrived (%zu/%u segments)",
          seg.call_number, ws.remote.ToString().c_str(),
          call == state.received.end() ? size_t{0}
                                       : call->second.segments.size(),
          call == state.received.end()
              ? 0u
              : static_cast<unsigned>(call->second.total_segments));
      AddViolation(ws, buf);
    }
    AdvancePhase(c, Conversation::Phase::kCallDelivered);
  }
  if (seg.type == msg::MessageType::kReturn) {
    AdvancePhase(c, Conversation::Phase::kReturning);
  }
}

void WireAuditor::ObserveRecvRecord(NodeState& state, const WireSegment& ws) {
  const msg::Segment& seg = ws.segment;
  state.last_heard[ws.remote] = ws.time_ns;
  char buf[192];

  if (seg.ack) {
    Conversation& c = ConversationFor(
        state, ws.node, ws, seg.type == msg::MessageType::kCall);
    ++c.cost.acks_received;
    const uint8_t k = seg.segment_number;
    if (k > 0 && state.complete) {
      auto max_sent = state.max_sent.find(
          {static_cast<int>(seg.type), seg.call_number});
      if (max_sent == state.max_sent.end() || max_sent->second < k) {
        std::snprintf(buf, sizeof(buf),
                      "ack for unsent segment: ack %u of %s %" PRIu32
                      " from %s (sent max %u)",
                      static_cast<unsigned>(k), TypeName(seg.type),
                      seg.call_number, ws.remote.ToString().c_str(),
                      max_sent == state.max_sent.end()
                          ? 0u
                          : static_cast<unsigned>(max_sent->second));
        AddViolation(ws, buf);
      }
    }
    // Completion bookkeeping from explicit acks.
    auto sent = state.sent.find({static_cast<int>(seg.type),
                                 seg.call_number,
                                 SentKeyDest(seg.type, ws.remote)});
    if (sent != state.sent.end() && sent->second.total_segments != 0 &&
        k >= sent->second.total_segments) {
      if (seg.type == msg::MessageType::kCall) {
        AdvancePhase(c, Conversation::Phase::kCallDelivered);
        state.final_call_ack.insert(seg.call_number);
      } else {
        AdvancePhase(c, Conversation::Phase::kDone);
        state.pending_returns[ws.remote].erase(seg.call_number);
      }
    }
    return;
  }

  if (seg.is_probe()) {
    // A peer probing us is its cost, not ours; only liveness tracking.
    ConversationFor(state, ws.node, ws, /*caller=*/false);
    return;
  }

  // Data segment.
  Conversation& c = ConversationFor(state, ws.node, ws,
                                    seg.type == msg::MessageType::kReturn);
  ReceivedMessage& r = state.received[{ws.remote,
                                       static_cast<int>(seg.type),
                                       seg.call_number}];
  if (r.total_segments == 0) {
    r.total_segments = seg.total_segments;
  }
  r.segments.insert(seg.segment_number);

  if (seg.type == msg::MessageType::kCall) {
    // A call implicitly acknowledges earlier returns to that peer
    // (Section 4.2.4): conversations still waiting on a return ack are
    // complete, with the explicit ack saved.
    auto pending = state.pending_returns.find(ws.remote);
    if (pending != state.pending_returns.end()) {
      auto it = pending->second.begin();
      while (it != pending->second.end() && *it < seg.call_number) {
        Conversation& served = state.conversations[{*it, false}];
        AdvancePhase(served, Conversation::Phase::kDone);
        ++served.cost.implicit_acks;
        it = pending->second.erase(it);
      }
    }
    if (r.Complete()) {
      AdvancePhase(c, Conversation::Phase::kCallDelivered);
    }
  } else if (r.Complete()) {
    // Caller view: full return ends the conversation; the return also
    // served as the final ack of the call unless one arrived
    // explicitly.
    if (c.phase != Conversation::Phase::kDone) {
      AdvancePhase(c, Conversation::Phase::kDone);
      if (state.final_call_ack.count(seg.call_number) == 0) {
        ++c.cost.implicit_acks;
      }
    }
  }
}

WireAuditor::~WireAuditor() { Detach(); }

void WireAuditor::Attach(EventBus* bus) {
  Detach();
  bus_ = bus;
  subscriber_id_ = bus_->Subscribe([this](const Event& e) { Observe(e); });
}

void WireAuditor::Detach() {
  if (bus_ != nullptr) {
    bus_->Unsubscribe(subscriber_id_);
    bus_ = nullptr;
  }
}

void WireAuditor::Observe(const Event& event, bool complete) {
  if (!complete) {
    report_.complete = false;
  }
  if (!IsPacketEvent(event.kind)) {
    return;
  }
  ++report_.records;
  const bool send = event.kind == EventKind::kPacketSend;
  if (send) {
    ++report_.packets;
    report_.bytes += event.payload.size();
  }
  const std::optional<WireSegment> decoded = DecodePacket(event);
  if (!decoded.has_value()) {
    ++report_.undecodable;
    return;
  }
  const WireSegment& ws = *decoded;
  NodeState& state = nodes_[ws.node];
  if (!complete) {
    state.complete = false;
  }
  if (!send) {
    ObserveRecvRecord(state, ws);
    return;
  }
  ObserveSendRecord(state, ws);
  // Track returns-in-flight for implicit-ack accounting.
  if (ws.segment.type == msg::MessageType::kReturn && ws.segment.is_data()) {
    Conversation& c = state.conversations[{ws.segment.call_number, false}];
    if (c.phase != Conversation::Phase::kDone) {
      state.pending_returns[ws.remote].insert(ws.segment.call_number);
    }
  }
}

void WireAuditor::AddShard(const ShardFile& shard) {
  const bool complete = shard.complete();
  if (!complete) {
    report_.complete = false;
  }
  for (const Event& e : shard.events) {
    Observe(e, complete);
  }
}

AuditReport WireAuditor::Finish() {
  AuditReport report = std::move(report_);
  report_ = AuditReport{};
  for (auto& [node, state] : nodes_) {
    for (auto& [key, conversation] : state.conversations) {
      report.conversations.push_back(std::move(conversation));
    }
  }
  std::sort(report.conversations.begin(), report.conversations.end(),
            [](const Conversation& a, const Conversation& b) {
              if (a.node != b.node) {
                return a.node < b.node;
              }
              if (a.call_number != b.call_number) {
                return a.call_number < b.call_number;
              }
              return a.caller && !b.caller;  // caller view first
            });
  nodes_.clear();
  return report;
}

circus::StatusOr<AuditReport> AuditShardFiles(
    const std::vector<std::string>& paths, const AuditOptions& options) {
  WireAuditor auditor(options);
  for (const std::string& path : paths) {
    circus::StatusOr<ShardFile> shard = ReadShardFile(path);
    if (!shard.ok()) {
      return shard.status();
    }
    auditor.AddShard(*shard);
  }
  return auditor.Finish();
}

}  // namespace circus::obs::wire
