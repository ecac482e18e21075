#include "src/msg/paired_endpoint.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"

namespace circus::msg {

using circus::Status;
using sim::Duration;
using sim::Syscall;

namespace {

// Jitter seed for an endpoint whose options left it at 0: the local
// clock (so two incarnations at one address differ) mixed with the
// socket address (so co-booted endpoints differ).
uint64_t DeriveJitterSeed(net::DatagramSocket* socket) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : socket->local_address().ToString()) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return h ^ static_cast<uint64_t>(socket->host()->LocalClockNanos());
}

}  // namespace

PairedEndpoint::PairedEndpoint(net::DatagramSocket* socket,
                               EndpointOptions options)
    : socket_(socket),
      options_(options),
      jitter_rng_(options.jitter_seed != 0 ? options.jitter_seed
                                           : DeriveJitterSeed(socket)),
      incoming_calls_(socket->host()) {
  if (net::Fabric* fabric = socket->fabric(); fabric != nullptr) {
    const size_t limit = fabric->MaxDatagramBytes(host()->id());
    options_.segment_data_bytes =
        std::min(options_.segment_data_bytes,
                 std::bit_floor(limit - kSegmentHeaderBytes));
    bus_ = fabric->event_bus();
    if (obs::MetricsRegistry* metrics = fabric->metrics();
        metrics != nullptr) {
      retransmits_metric_ = metrics->GetCounter("msg.retransmits");
      probe_rounds_metric_ = metrics->GetCounter("msg.probe_rounds");
      duplicates_metric_ = metrics->GetCounter("msg.duplicates_suppressed");
      crash_detections_metric_ = metrics->GetCounter("msg.crash_detections");
    }
  }
  host()->Spawn(ReceiverLoop());
}

void PairedEndpoint::PublishSegmentEvent(obs::EventKind kind,
                                         const net::NetAddress& peer,
                                         uint32_t call_number, uint64_t c) {
  if (bus_ == nullptr || !bus_->active()) {
    return;
  }
  obs::Event e;
  e.kind = kind;
  e.host = static_cast<uint32_t>(host()->id());
  e.origin = obs::PackAddress(local_address().host, local_address().port);
  e.a = obs::PackAddress(peer.host, peer.port);
  e.b = call_number;
  e.c = c;
  bus_->Publish(std::move(e));
}

Duration PairedEndpoint::Jittered(Duration base) {
  if (options_.timer_jitter <= 0.0) {
    return base;
  }
  const double factor =
      1.0 + options_.timer_jitter * (2.0 * jitter_rng_.UniformDouble() - 1.0);
  return Duration::Nanos(
      static_cast<int64_t>(static_cast<double>(base.nanos()) * factor));
}

PairedEndpoint::~PairedEndpoint() = default;

// --------------------------------------------------------------- Sending

sim::Task<void> PairedEndpoint::TransmitSegment(const net::NetAddress& to,
                                                const Segment& seg,
                                                const circus::Bytes* message,
                                                bool retransmission) {
  // Critical region around protocol state (the paper's user-mode
  // implementation masks software interrupts with sigblock).
  host()->ChargeSyscallInstant(Syscall::kSigBlock);
  obs::EventKind kind = obs::EventKind::kSegmentSend;
  if (seg.ack) {
    ++counters_.ack_segments_sent;
    kind = obs::EventKind::kAckSend;
  } else if (seg.is_probe()) {
    ++counters_.probe_segments_sent;
    kind = obs::EventKind::kProbeSend;
  } else {
    ++counters_.data_segments_sent;
  }
  if (retransmission) {
    ++counters_.retransmitted_segments;
    if (retransmits_metric_ != nullptr) {
      retransmits_metric_->Increment();
    }
    kind = obs::EventKind::kSegmentRetransmit;
  }
  PublishSegmentEvent(kind, to, seg.call_number, seg.segment_number);
  circus::Bytes wire;
  if (message == nullptr) {
    wire = seg.Encode();
  } else {
    const std::span<const uint8_t> slice = SegmentSlice(
        *message, seg.segment_number, options_.segment_data_bytes);
    wire = seg.EncodeWith(slice.data(), slice.size());
  }
  co_await socket_->Send(to, std::move(wire));
}

sim::Task<circus::Status> PairedEndpoint::SendMessage(
    net::NetAddress to, MessageType type, uint32_t call_number,
    std::shared_ptr<const circus::Bytes> message) {
  const bool is_return = (type == MessageType::kReturn);
  const ExchangeId id{is_return ? Role::kPeerCalls : Role::kWeCall,
                      call_number};
  const uint8_t total =
      SegmentCount(message->size(), options_.segment_data_bytes);
  Send send(host(), total);
  // A second send of one exchange takes the acks over from the first,
  // which runs on without them.
  Peer& peer = peers_[to];
  peer.exchanges[id].send = &send;
  peer.returns_sending += is_return ? 1 : 0;

  // Circus transmits every segment up front; Xerox PARC RPC transmits
  // each once the one before it is acknowledged, asking for an ack of
  // all but the last. Both retransmit the first unacknowledged segment
  // periodically with please-ack set.
  const bool stop_and_wait =
      (options_.mode == EndpointOptions::Mode::kStopAndWait);
  int sent = 0;
  int retries = 0;
  Status result;
  while (sent < total || send.acked < total) {
    if (sent < total && (!stop_and_wait || send.acked >= sent)) {
      Segment s = SegmentHeader(type, call_number, total, ++sent);
      s.please_ack = stop_and_wait && sent < total;
      co_await TransmitSegment(to, s, message.get(), false);
      continue;
    }
    host()->ChargeSyscallInstant(Syscall::kSetITimer);
    host()->ChargeSyscallInstant(Syscall::kGetTimeOfDay);
    std::optional<uint32_t> progress =
        co_await send.progress.ReceiveWithTimeout(
            Jittered(options_.retransmit_interval));
    if (progress.has_value()) {
      retries = 0;
      continue;
    }
    if (++retries > options_.max_retransmits) {
      result = Status(ErrorCode::kCrashDetected,
                      "no acknowledgment from " + to.ToString());
      if (crash_detections_metric_ != nullptr) {
        crash_detections_metric_->Increment();
      }
      PublishSegmentEvent(obs::EventKind::kPeerCrashDetected, to,
                          call_number, 0);
      break;
    }
    Segment again = SegmentHeader(type, call_number, total, send.acked + 1);
    again.please_ack = true;
    co_await TransmitSegment(to, again, message.get(), true);
  }
  peer.returns_sending -= is_return ? 1 : 0;
  if (auto it = peer.exchanges.find(id);
      it != peer.exchanges.end() && it->second.send == &send) {
    it->second.send = nullptr;
    FreeIfIdle(peer, it);
  }
  co_return result;
}

sim::Task<void> PairedEndpoint::BlastMulticast(
    net::NetAddress group, MessageType type, uint32_t call_number,
    std::shared_ptr<const circus::Bytes> message) {
  const uint8_t total =
      SegmentCount(message->size(), options_.segment_data_bytes);
  for (int n = 1; n <= total; ++n) {
    const Segment s = SegmentHeader(type, call_number, total, n);
    co_await TransmitSegment(group, s, message.get(), false);
  }
}

// ------------------------------------------------------------- Receiving

sim::Task<Message> PairedEndpoint::NextIncomingCall() {
  co_return co_await ReceiveValue(incoming_calls_);
}

sim::Task<circus::StatusOr<Message>> PairedEndpoint::AwaitReturn(
    net::NetAddress peer, uint32_t call_number) {
  Peer& p = peers_[peer];
  int silent_probes = 0;
  while (true) {
    host()->ChargeSyscallInstant(Syscall::kSetITimer);
    host()->ChargeSyscallInstant(Syscall::kGetTimeOfDay);
    std::optional<Message> m =
        co_await p.exchanges[{Role::kWeCall, call_number}]
            .Slot(host())
            .ReceiveWithTimeout(Jittered(options_.probe_interval));
    if (m.has_value()) {
      DiscardReturn(peer, call_number);
      co_return std::move(*m);
    }
    // No reply yet. If we heard anything at all from the peer recently,
    // it is alive but slow; only silence counts against it.
    if (p.last_heard.has_value() &&
        host()->executor().now() - *p.last_heard < options_.probe_interval) {
      silent_probes = 0;
    } else if (++silent_probes > options_.max_silent_probes) {
      DiscardReturn(peer, call_number);
      if (crash_detections_metric_ != nullptr) {
        crash_detections_metric_->Increment();
      }
      PublishSegmentEvent(obs::EventKind::kPeerCrashDetected, peer,
                          call_number, static_cast<uint64_t>(silent_probes));
      co_return Status(ErrorCode::kCrashDetected,
                       "no response to probes from " + peer.ToString());
    }
    if (probe_rounds_metric_ != nullptr) {
      probe_rounds_metric_->Increment();
    }
    // Probe: a control segment asking for the ack state of our call.
    Segment probe = SegmentHeader(MessageType::kCall, call_number, 1, 0);
    probe.please_ack = true;
    co_await TransmitSegment(peer, probe, nullptr, false);
  }
}

sim::Task<std::optional<Message>> PairedEndpoint::TryAwaitReturn(
    net::NetAddress peer, uint32_t call_number, sim::Duration timeout) {
  Peer& p = peers_[peer];
  host()->ChargeSyscallInstant(Syscall::kSetITimer);
  std::optional<Message> m =
      co_await p.exchanges[{Role::kWeCall, call_number}]
          .Slot(host())
          .ReceiveWithTimeout(timeout);
  if (m.has_value()) {
    DiscardReturn(peer, call_number);
  }
  co_return std::move(m);
}

void PairedEndpoint::DiscardReturn(net::NetAddress peer,
                                   uint32_t call_number) {
  Peer& p = peers_[peer];
  auto it = p.exchanges.find({Role::kWeCall, call_number});
  if (it != p.exchanges.end()) {
    it->second.slot.reset();
    FreeIfIdle(p, it);
  }
}

sim::Task<void> PairedEndpoint::ReceiverLoop() {
  while (true) {
    net::Datagram d = co_await socket_->ReceiveRaw();
    // The user-mode implementation learns of the datagram via a software
    // interrupt, polls with select, reads it with recvmsg, and brackets
    // its protocol bookkeeping in a sigblock critical region.
    host()->ChargeSyscallInstant(Syscall::kSelect);
    host()->ChargeSyscallInstant(Syscall::kSigBlock);
    co_await host()->DoSyscall(Syscall::kRecvMsg);
    std::optional<Segment> seg = Segment::Decode(std::move(d.payload));
    if (!seg.has_value()) {
      CIRCUS_LOG_AT(LogLevel::kDebug, host()->executor().now().nanos())
          << "malformed segment from " << d.source.ToString();
      continue;
    }
    HandleSegment(d.source, *std::move(seg));
  }
}

void PairedEndpoint::HandleSegment(const net::NetAddress& from,
                                   Segment seg) {
  Peer& peer = peers_[from];
  peer.last_heard = host()->executor().now();
  // A call's data segments and probes come from its caller and its acks
  // from its callee; a return's the other way round.
  const bool from_caller = (seg.type == MessageType::kCall) != seg.ack;
  const ExchangeId id{from_caller ? Role::kPeerCalls : Role::kWeCall,
                      seg.call_number};
  if (seg.is_data()) {
    HandleData(from, peer, id, std::move(seg));
    return;
  }
  auto it = peer.exchanges.find(id);
  Exchange* e = (it == peer.exchanges.end()) ? nullptr : &it->second;
  if (seg.ack) {
    if (e == nullptr || e->send == nullptr) {
      return;  // stale ack for a finished exchange
    }
    Send& send = *e->send;
    send.acked = std::max(send.acked,
                          std::min(seg.segment_number, send.total_segments));
    send.progress.Send(seg.segment_number);
  } else if (seg.please_ack) {
    // A probe. Subsequent please-ack segments (after completion) must be
    // answered promptly (Section 4.2.4); one about an exchange never
    // seen is answered with 0, so its sender retransmits from the start.
    const bool seen = (e != nullptr && e->total_segments != 0);
    SendAck(from, seg.type, seg.call_number,
            seen ? e->total_segments : seg.total_segments,
            seen ? e->ack_number : 0);
  }
}

void PairedEndpoint::ApplyImplicitAcks(Peer& peer,
                                       ExchangeMap::iterator exchange,
                                       MessageType type) {
  auto full_ack = [](Send* send) {
    if (send != nullptr) {
      send->acked = send->total_segments;
      send->progress.Send(UINT32_MAX);
    }
  };
  if (type == MessageType::kReturn) {
    // A return segment implicitly acknowledges the call with the same
    // call number.
    full_ack(exchange->second.send);
    return;
  }
  // A call segment implicitly acknowledges returns with earlier call
  // numbers sent to that peer, oldest first. Their exchanges sit just
  // below this one (kPeerCalls sorts first): step down past the oldest
  // still sending, then ack upwards.
  auto it = exchange;
  for (size_t left = peer.returns_sending;
       left > 0 && it != peer.exchanges.begin();) {
    --it;
    left -= (it->second.send != nullptr) ? 1 : 0;
  }
  for (; it != exchange; ++it) {
    full_ack(it->second.send);
  }
}

void PairedEndpoint::HandleData(const net::NetAddress& from, Peer& peer,
                                ExchangeId id, Segment seg) {
  const ExchangeMap::iterator it = peer.exchanges.try_emplace(id).first;
  ApplyImplicitAcks(peer, it, seg.type);
  Exchange& e = it->second;
  if (e.completed()) {
    // Duplicate of a completed exchange: re-acknowledge, never redeliver
    // (this is what makes execution exactly-once at the message level).
    ++counters_.duplicate_messages_suppressed;
    if (duplicates_metric_ != nullptr) {
      duplicates_metric_->Increment();
    }
    PublishSegmentEvent(obs::EventKind::kDuplicateSuppressed, from,
                        seg.call_number, seg.segment_number);
    if (seg.please_ack) {
      SendAck(from, seg.type, seg.call_number, e.ack_number, e.ack_number);
    }
    return;
  }
  if (e.total_segments == 0) {
    e.total_segments = seg.total_segments;
  }
  if (seg.total_segments != e.total_segments ||
      seg.segment_number > e.total_segments) {
    return;  // inconsistent header; drop like a garbled packet
  }
  circus::Bytes data;
  if (e.total_segments == 1) {
    data = std::move(seg.data);
    e.ack_number = 1;
  } else {
    e.parts.resize(e.total_segments);
    e.parts[seg.segment_number - 1] = std::move(seg.data);
    while (e.ack_number < e.total_segments &&
           e.parts[e.ack_number].has_value()) {
      ++e.ack_number;
    }
    if (e.ack_number < e.total_segments) {
      // Answer an explicit request, and an out-of-order arrival (a
      // segment below this one was lost) at once, so the sender
      // retransmits the missing segment rather than an earlier one
      // (Section 4.2.4).
      if (seg.please_ack || seg.segment_number > e.ack_number + 1) {
        SendAck(from, seg.type, seg.call_number, e.total_segments,
                e.ack_number);
      }
      return;
    }
    data.reserve(e.total_segments * options_.segment_data_bytes);
    for (const std::optional<circus::Bytes>& part : e.parts) {
      data.insert(data.end(), part->begin(), part->end());
    }
  }
  e.parts = {};
  // Acknowledgment policy on completion (Section 4.2.4): for a call
  // message, postpone in the hope that the return will serve as the
  // implicit ack; for a return message, answer an explicit request.
  if (seg.type == MessageType::kReturn && seg.please_ack) {
    SendAck(from, seg.type, seg.call_number, e.total_segments,
            e.total_segments);
  }
  DeliverMessage(from, e, seg.type, seg.call_number, std::move(data));
  // Remember the exchange for duplicate suppression ("kept until no
  // delayed segments can arrive"), forgetting the oldest past the bound.
  peer.history.push_back(it);
  while (peer.history.size() > options_.completed_history_per_peer) {
    const ExchangeMap::iterator oldest = peer.history.pop_front();
    oldest->second.total_segments = oldest->second.ack_number = 0;
    FreeIfIdle(peer, oldest);
  }
}

void PairedEndpoint::SendAck(const net::NetAddress& to, MessageType type,
                             uint32_t call_number, uint8_t total_segments,
                             uint8_t ack_number) {
  Segment ack = SegmentHeader(type, call_number,
                              total_segments == 0 ? 1 : total_segments,
                              ack_number);
  ack.ack = true;
  // Acks are sent from within the receiver's critical region; fire and
  // forget (they are themselves unreliable).
  ++counters_.ack_segments_sent;
  PublishSegmentEvent(obs::EventKind::kAckSend, to, call_number, ack_number);
  host()->ChargeSyscallInstant(Syscall::kSigBlock);
  host()->ChargeSyscallInstant(Syscall::kSendMsg);
  socket_->SendRaw(to, ack.Encode());
}

void PairedEndpoint::DeliverMessage(const net::NetAddress& from,
                                    Exchange& exchange, MessageType type,
                                    uint32_t call_number,
                                    circus::Bytes data) {
  ++counters_.messages_delivered;
  PublishSegmentEvent(obs::EventKind::kMessageDelivered, from, call_number,
                      data.size());
  Message m{from, type, call_number, std::move(data)};
  if (type == MessageType::kCall) {
    incoming_calls_.Send(std::move(m));
    return;
  }
  // Someone awaits this return only if its slot exists (AwaitReturn and
  // TryAwaitReturn make it before suspending) or its call's send is still
  // running (the return's implicit ack arrived before SendMessage
  // resumed). Otherwise the caller gave up and the slot would be parked
  // forever.
  if (!exchange.slot.has_value() && exchange.send == nullptr) {
    ++counters_.late_returns_dropped;
    return;
  }
  exchange.Slot(host()).Send(std::move(m));
}

void PairedEndpoint::FreeIfIdle(Peer& peer, ExchangeMap::iterator exchange) {
  if (exchange->second.idle()) {
    peer.exchanges.erase(exchange);
  }
}

// ---------------------------------------------------------- Introspection

size_t PairedEndpoint::return_slot_count() const {
  size_t slots = 0;
  for (const auto& [address, peer] : peers_) {
    slots += exchange_counts(address).awaiting;
  }
  return slots;
}

PairedEndpoint::ExchangeCounts PairedEndpoint::exchange_counts(
    net::NetAddress peer) const {
  ExchangeCounts counts;
  if (auto p = peers_.find(peer); p != peers_.end()) {
    for (const auto& [id, e] : p->second.exchanges) {
      ++counts.held;
      counts.sending += (e.send != nullptr) ? 1 : 0;
      counts.reassembling +=
          (e.total_segments != 0 && !e.completed()) ? 1 : 0;
      counts.awaiting += e.slot.has_value() ? 1 : 0;
    }
  }
  return counts;
}

std::vector<std::pair<net::NetAddress, sim::TimePoint>>
PairedEndpoint::PeerActivity() const {
  std::vector<std::pair<net::NetAddress, sim::TimePoint>> heard;
  for (const auto& [address, peer] : peers_) {
    if (peer.last_heard.has_value()) {
      heard.emplace_back(address, *peer.last_heard);
    }
  }
  return heard;
}

}  // namespace circus::msg
