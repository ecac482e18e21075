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
  const ExchangeKey key{to, type, call_number};
  const size_t size = message->size();
  auto state = std::make_shared<SenderState>(
      host(), std::move(message),
      SegmentHeaders(type, call_number, size, options_.segment_data_bytes));
  senders_[key] = state;
  const circus::Bytes* data = state->message.get();
  const std::vector<Segment>& segments = state->segments;

  Status result;
  if (options_.mode == EndpointOptions::Mode::kSlidingWindow) {
    // Circus: transmit every segment up front, then retransmit the first
    // unacknowledged one periodically with please-ack set.
    for (const Segment& s : segments) {
      co_await TransmitSegment(to, s, data, false);
    }
    int retries = 0;
    while (!state->all_acked()) {
      host()->ChargeSyscallInstant(Syscall::kSetITimer);
      host()->ChargeSyscallInstant(Syscall::kGetTimeOfDay);
      std::optional<uint32_t> progress =
          co_await state->progress.ReceiveWithTimeout(
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
      Segment again = state->first_unacked_segment();
      again.please_ack = true;
      co_await TransmitSegment(to, again, data, true);
    }
  } else {
    // Xerox PARC RPC: explicit acknowledgment of every segment but the
    // last, so at most one segment's worth of buffering per connection.
    for (size_t i = 0; i < segments.size() && result.ok(); ++i) {
      const bool last = (i + 1 == segments.size());
      Segment s = segments[i];
      if (!last) {
        s.please_ack = true;
      }
      co_await TransmitSegment(to, s, data, false);
      int attempts = 0;
      while (!state->all_acked() &&
             state->first_unacked_segment().segment_number <=
                 s.segment_number) {
        host()->ChargeSyscallInstant(Syscall::kSetITimer);
        host()->ChargeSyscallInstant(Syscall::kGetTimeOfDay);
        std::optional<uint32_t> progress =
            co_await state->progress.ReceiveWithTimeout(
                Jittered(options_.retransmit_interval));
        if (progress.has_value()) {
          attempts = 0;
          continue;
        }
        if (++attempts > options_.max_retransmits) {
          result = Status(ErrorCode::kCrashDetected,
                          "no acknowledgment from " + to.ToString());
          if (crash_detections_metric_ != nullptr) {
            crash_detections_metric_->Increment();
          }
          PublishSegmentEvent(obs::EventKind::kPeerCrashDetected, to,
                              call_number, 0);
          break;
        }
        Segment again = state->first_unacked_segment();
        again.please_ack = true;
        co_await TransmitSegment(to, again, data, true);
      }
    }
  }
  senders_.erase(key);
  co_return result;
}

sim::Task<void> PairedEndpoint::BlastMulticast(
    net::NetAddress group, MessageType type, uint32_t call_number,
    std::shared_ptr<const circus::Bytes> message) {
  const std::vector<Segment> segments = SegmentHeaders(
      type, call_number, message->size(), options_.segment_data_bytes);
  for (const Segment& s : segments) {
    co_await TransmitSegment(group, s, message.get(), false);
  }
}

// ------------------------------------------------------------- Receiving

sim::Task<Message> PairedEndpoint::NextIncomingCall() {
  co_return co_await ReceiveValue(incoming_calls_);
}

sim::Channel<Message>& PairedEndpoint::ReturnSlot(const ExchangeKey& key) {
  return return_slots_.try_emplace(key, host()).first->second;
}

sim::Task<circus::StatusOr<Message>> PairedEndpoint::AwaitReturn(
    net::NetAddress peer, uint32_t call_number) {
  const ExchangeKey key{peer, MessageType::kReturn, call_number};
  int silent_probes = 0;
  while (true) {
    host()->ChargeSyscallInstant(Syscall::kSetITimer);
    host()->ChargeSyscallInstant(Syscall::kGetTimeOfDay);
    std::optional<Message> m =
        co_await ReturnSlot(key).ReceiveWithTimeout(
            Jittered(options_.probe_interval));
    if (m.has_value()) {
      return_slots_.erase(key);
      co_return std::move(*m);
    }
    // No reply yet. If we heard anything at all from the peer recently,
    // it is alive but slow; only silence counts against it.
    auto activity = last_activity_.find(peer);
    if (activity != last_activity_.end() &&
        host()->executor().now() - activity->second <
            options_.probe_interval) {
      silent_probes = 0;
    } else if (++silent_probes > options_.max_silent_probes) {
      return_slots_.erase(key);
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
    Segment probe;
    probe.type = MessageType::kCall;
    probe.call_number = call_number;
    probe.please_ack = true;
    probe.segment_number = 0;
    probe.total_segments = 1;
    co_await TransmitSegment(peer, probe, nullptr, false);
  }
}

sim::Task<std::optional<Message>> PairedEndpoint::TryAwaitReturn(
    net::NetAddress peer, uint32_t call_number, sim::Duration timeout) {
  const ExchangeKey key{peer, MessageType::kReturn, call_number};
  host()->ChargeSyscallInstant(Syscall::kSetITimer);
  std::optional<Message> m =
      co_await ReturnSlot(key).ReceiveWithTimeout(timeout);
  if (m.has_value()) {
    return_slots_.erase(key);
  }
  co_return std::move(m);
}

void PairedEndpoint::DiscardReturn(net::NetAddress peer,
                                   uint32_t call_number) {
  return_slots_.erase(
      ExchangeKey{peer, MessageType::kReturn, call_number});
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
  last_activity_[from] = host()->executor().now();
  if (seg.ack) {
    HandleAck(from, seg);
  } else if (seg.is_probe()) {
    HandleProbe(from, seg);
  } else {
    HandleData(from, std::move(seg));
  }
}

void PairedEndpoint::HandleAck(const net::NetAddress& from,
                               const Segment& seg) {
  const ExchangeKey key{from, seg.type, seg.call_number};
  auto it = senders_.find(key);
  if (it == senders_.end()) {
    return;  // stale ack for a finished exchange
  }
  SenderState& state = *it->second;
  const uint8_t ack_number = seg.segment_number;
  while (!state.all_acked() &&
         state.first_unacked_segment().segment_number <= ack_number) {
    ++state.first_unacked;
  }
  state.progress.Send(ack_number);
}

void PairedEndpoint::HandleProbe(const net::NetAddress& from,
                                 const Segment& seg) {
  if (!seg.please_ack) {
    return;
  }
  const ExchangeKey key{from, seg.type, seg.call_number};
  // Subsequent please-ack segments (after completion) must be answered
  // promptly (Section 4.2.4).
  auto done = completed_.find(key);
  if (done != completed_.end()) {
    SendAck(from, seg.type, seg.call_number, done->second, done->second);
    return;
  }
  auto partial = reassembly_.find(key);
  if (partial != reassembly_.end()) {
    SendAck(from, seg.type, seg.call_number, partial->second.total_segments,
            partial->second.ack_number);
    return;
  }
  SendAck(from, seg.type, seg.call_number, seg.total_segments, 0);
}

void PairedEndpoint::ApplyImplicitAcks(const net::NetAddress& from,
                                       const Segment& seg) {
  auto full_ack = [this](std::map<ExchangeKey,
                                  std::shared_ptr<SenderState>>::iterator
                             it) {
    it->second->first_unacked = it->second->segments.size();
    it->second->progress.Send(UINT32_MAX);
  };
  if (seg.type == MessageType::kReturn) {
    // A return segment implicitly acknowledges the call with the same
    // call number.
    auto it = senders_.find(
        ExchangeKey{from, MessageType::kCall, seg.call_number});
    if (it != senders_.end()) {
      full_ack(it);
    }
  } else {
    // A call segment implicitly acknowledges returns with earlier call
    // numbers sent to that peer.
    auto it = senders_.lower_bound(
        ExchangeKey{from, MessageType::kReturn, 0});
    while (it != senders_.end() && it->first.peer == from &&
           it->first.type == MessageType::kReturn &&
           it->first.call_number < seg.call_number) {
      auto next = std::next(it);
      full_ack(it);
      it = next;
    }
  }
}

void PairedEndpoint::HandleData(const net::NetAddress& from, Segment seg) {
  ApplyImplicitAcks(from, seg);
  const ExchangeKey key{from, seg.type, seg.call_number};
  auto done = completed_.find(key);
  if (done != completed_.end()) {
    // Duplicate of a completed exchange: re-acknowledge, never redeliver
    // (this is what makes execution exactly-once at the message level).
    ++counters_.duplicate_messages_suppressed;
    if (duplicates_metric_ != nullptr) {
      duplicates_metric_->Increment();
    }
    PublishSegmentEvent(obs::EventKind::kDuplicateSuppressed, from,
                        seg.call_number, seg.segment_number);
    if (seg.please_ack) {
      SendAck(from, seg.type, seg.call_number, done->second, done->second);
    }
    return;
  }
  Reassembly& r = reassembly_[key];
  if (r.total_segments == 0) {
    r.total_segments = seg.total_segments;
    r.parts.resize(seg.total_segments);
  }
  if (seg.total_segments != r.total_segments ||
      seg.segment_number > r.total_segments) {
    return;  // inconsistent header; drop like a garbled packet
  }
  const size_t index = seg.segment_number - 1;
  r.parts[index] = std::move(seg.data);
  while (r.ack_number < r.total_segments &&
         r.parts[r.ack_number].has_value()) {
    ++r.ack_number;
  }
  const bool complete = (r.ack_number == r.total_segments);
  if (complete) {
    circus::Bytes data;
    if (r.parts.size() == 1) {
      data = std::move(*r.parts[0]);
    } else {
      std::vector<circus::Bytes> parts;
      parts.reserve(r.parts.size());
      for (std::optional<circus::Bytes>& p : r.parts) {
        parts.push_back(std::move(*p));
      }
      data = JoinSegments(parts);
    }
    const uint8_t total = r.total_segments;
    reassembly_.erase(key);
    RememberCompleted(key, total);
    // Acknowledgment policy on completion (Section 4.2.4): for a call
    // message, postpone in the hope that the return will serve as the
    // implicit ack; for a return message, answer an explicit request.
    if (seg.type == MessageType::kReturn && seg.please_ack) {
      SendAck(from, seg.type, seg.call_number, total, total);
    }
    DeliverMessage(from, seg.type, seg.call_number, std::move(data));
    return;
  }
  if (seg.please_ack) {
    SendAck(from, seg.type, seg.call_number, r.total_segments,
            r.ack_number);
    return;
  }
  if (seg.segment_number > r.ack_number + 1) {
    // Out-of-order arrival: a segment below this one was lost. Ack
    // immediately so the sender retransmits the missing segment rather
    // than an earlier one (Section 4.2.4).
    SendAck(from, seg.type, seg.call_number, r.total_segments,
            r.ack_number);
  }
}

void PairedEndpoint::SendAck(const net::NetAddress& to, MessageType type,
                             uint32_t call_number, uint8_t total_segments,
                             uint8_t ack_number) {
  Segment ack;
  ack.type = type;
  ack.ack = true;
  ack.total_segments = total_segments == 0 ? 1 : total_segments;
  ack.segment_number = ack_number;
  ack.call_number = call_number;
  // Acks are sent from within the receiver's critical region; fire and
  // forget (they are themselves unreliable).
  ++counters_.ack_segments_sent;
  PublishSegmentEvent(obs::EventKind::kAckSend, to, call_number, ack_number);
  host()->ChargeSyscallInstant(Syscall::kSigBlock);
  host()->ChargeSyscallInstant(Syscall::kSendMsg);
  socket_->SendRaw(to, ack.Encode());
}

void PairedEndpoint::DeliverMessage(const net::NetAddress& from,
                                    MessageType type, uint32_t call_number,
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
  const ExchangeKey key{from, type, call_number};
  auto slot = return_slots_.find(key);
  if (slot != return_slots_.end()) {
    slot->second.Send(std::move(m));
  } else if (senders_.contains(
                 ExchangeKey{from, MessageType::kCall, call_number})) {
    ReturnSlot(key).Send(std::move(m));
  } else {
    ++counters_.late_returns_dropped;
  }
}

void PairedEndpoint::RememberCompleted(const ExchangeKey& key,
                                       uint8_t total_segments) {
  completed_[key] = total_segments;
  std::deque<ExchangeKey>& order = completed_order_[key.peer];
  order.push_back(key);
  while (order.size() > options_.completed_history_per_peer) {
    completed_.erase(order.front());
    order.pop_front();
  }
}

}  // namespace circus::msg
