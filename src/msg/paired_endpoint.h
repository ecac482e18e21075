// The Circus paired message layer (Section 4.2): reliably delivered,
// variable-length, paired (call/return) messages over unreliable
// datagrams, with call numbers identifying each exchange. Connectionless:
// a client just sends a call message. Features reproduced from the
// dissertation:
//
//  * segmentation/reassembly with a sliding window (all segments sent
//    before any is acknowledged), or the Xerox PARC-style stop-and-wait
//    alternative for comparison (Section 4.2.5);
//  * explicit acks (ack bit + acknowledgment number) and implicit acks
//    (a return segment acks the call of the same call number; a call
//    segment acks returns with earlier call numbers);
//  * postponed acknowledgment of a just-completed call message, in the
//    hope the return will arrive soon enough to serve as the ack;
//  * immediate ack on out-of-order arrival, to trigger fast retransmit;
//  * probing and retransmission timeouts for crash detection
//    (Section 4.2.3);
//  * duplicate suppression: completed exchanges are remembered so a
//    retransmitted call is re-acknowledged, never re-delivered.
//
// The message contents are uninterpreted here; the replicated procedure
// call layer (src/core) defines what goes inside.
#ifndef SRC_MSG_PAIRED_ENDPOINT_H_
#define SRC_MSG_PAIRED_ENDPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/msg/segment.h"
#include "src/net/socket.h"
#include "src/obs/bus.h"
#include "src/obs/metrics.h"
#include "src/sim/channel.h"
#include "src/sim/random.h"
#include "src/sim/task.h"

namespace circus::msg {

// A fully reassembled incoming message.
struct Message {
  net::NetAddress peer;
  MessageType type = MessageType::kCall;
  uint32_t call_number = 0;
  circus::Bytes data;
};

struct EndpointOptions {
  // kSlidingWindow is the Circus protocol; kStopAndWait is the Xerox PARC
  // RPC behaviour (explicit ack of every segment but the last), kept for
  // the Section 4.2.5 ablation.
  enum class Mode { kSlidingWindow, kStopAndWait };
  Mode mode = Mode::kSlidingWindow;

  // Cap on the data bytes per segment. The endpoint segments to the
  // smaller of this and the largest power of two that fits its fabric's
  // datagram limit after the 8-byte header (Section 4.2.4): 1024 on the
  // simulated Ethernet, 32768 on loopback. options() reports the size in
  // effect.
  size_t segment_data_bytes = 32768;

  // Retransmission of the first unacknowledged segment.
  sim::Duration retransmit_interval = sim::Duration::Millis(300);
  int max_retransmits = 8;  // then the peer is presumed crashed

  // Probing while awaiting a response (Section 4.2.3).
  sim::Duration probe_interval = sim::Duration::Seconds(1);
  int max_silent_probes = 5;

  // Multiplicative jitter on the retransmit and probe timers: each wait
  // is scaled by a factor uniform in [1-jitter, 1+jitter], so endpoints
  // that fired in lockstep (a troupe answering one multicast, members
  // rebooted together) spread their retransmission storms instead of
  // hammering a recovering peer in phase. 0 disables (every wait exact,
  // for tests that count timeouts). The liveness bookkeeping (how long a
  // peer may stay silent before probes count against it) is never
  // jittered.
  double timer_jitter = 0.1;
  // Seed for the jitter stream; 0 derives one from the local clock and
  // socket address at construction (deterministic inside the simulation,
  // distinct across endpoints).
  uint64_t jitter_seed = 0;

  // How many completed exchanges to remember per peer for duplicate
  // suppression ("kept until no delayed segments can arrive").
  size_t completed_history_per_peer = 64;
};

class PairedEndpoint {
 public:
  // Takes ownership of nothing; `socket` must outlive the endpoint. The
  // receiver loop starts immediately.
  PairedEndpoint(net::DatagramSocket* socket, EndpointOptions options);
  PairedEndpoint(const PairedEndpoint&) = delete;
  PairedEndpoint& operator=(const PairedEndpoint&) = delete;
  ~PairedEndpoint();

  net::NetAddress local_address() const { return socket_->local_address(); }
  sim::Host* host() const { return socket_->host(); }
  const EndpointOptions& options() const { return options_; }

  // Sends one message reliably to `to`. Returns kCrashDetected if the
  // receiver never acknowledges despite repeated retransmission. The
  // message is shared read-only, not copied: a caller sending the same
  // bytes to several peers passes one buffer to every send, and each
  // (re)transmission encodes its segment's slice straight from it.
  sim::Task<circus::Status> SendMessage(
      net::NetAddress to, MessageType type, uint32_t call_number,
      std::shared_ptr<const circus::Bytes> message);
  sim::Task<circus::Status> SendMessage(net::NetAddress to, MessageType type,
                                        uint32_t call_number,
                                        circus::Bytes data) {
    return SendMessage(to, type, call_number,
                       std::make_shared<const circus::Bytes>(std::move(data)));
  }

  // Transmits the segments of a message once to a multicast group, with
  // no per-member reliability: the caller (the replicated call layer)
  // treats each member's return message as the acknowledgment and falls
  // back to reliable unicast for silent members (Section 4.3.7).
  sim::Task<void> BlastMulticast(net::NetAddress group, MessageType type,
                                 uint32_t call_number,
                                 std::shared_ptr<const circus::Bytes> message);

  // Next fully assembled incoming call message (servers consume these).
  sim::Task<Message> NextIncomingCall();

  // Waits for the return message of call `call_number` from `peer`,
  // probing periodically; returns kCrashDetected if the peer stays silent
  // through `max_silent_probes` probes.
  sim::Task<circus::StatusOr<Message>> AwaitReturn(net::NetAddress peer,
                                                   uint32_t call_number);

  // Waits up to `timeout` for the return of `call_number` from `peer`
  // without probing; nullopt on timeout (the slot is kept, so a later
  // AwaitReturn picks up where this left off). Used for the optimistic
  // phase of multicast calls (Section 4.3.7).
  sim::Task<std::optional<Message>> TryAwaitReturn(net::NetAddress peer,
                                                   uint32_t call_number,
                                                   sim::Duration timeout);

  // Forgets a pending return slot (used when a collator finishes early
  // and the remaining replies are to be discarded by call number,
  // Section 4.3.4).
  void DiscardReturn(net::NetAddress peer, uint32_t call_number);

  // --- introspection for tests/benches ---
  struct Counters {
    uint64_t data_segments_sent = 0;
    uint64_t ack_segments_sent = 0;
    uint64_t probe_segments_sent = 0;
    uint64_t retransmitted_segments = 0;
    uint64_t duplicate_messages_suppressed = 0;
    uint64_t messages_delivered = 0;
    // Returns delivered after their caller gave up (its send failed, or
    // its wait ended or was discarded): nobody will await them, so they
    // are dropped instead of parked in a slot forever.
    uint64_t late_returns_dropped = 0;
  };
  const Counters& counters() const { return counters_; }

  // Return slots currently held (awaited, or filled and not yet taken).
  size_t return_slot_count() const;

  // The exchanges held with `peer`: all, and those with a running send,
  // a partial reassembly or a return slot (the rest are history).
  struct ExchangeCounts {
    size_t held = 0, sending = 0, reassembling = 0, awaiting = 0;
  };
  ExchangeCounts exchange_counts(net::NetAddress peer) const;

  // Last time any segment arrived from each peer heard from, in address
  // order (the probe machinery's own liveness bookkeeping). A peer silent
  // for longer than probe_interval * max_silent_probes is the one the
  // endpoint would declare crashed; the node health endpoint renders
  // exactly that judgement.
  std::vector<std::pair<net::NetAddress, sim::TimePoint>> PeerActivity()
      const;

 private:
  // An exchange with a peer is named by who sent its call and its call
  // number, so a process that calls its peer and is called back with the
  // same number holds two. kPeerCalls sorts first.
  enum class Role : uint8_t { kPeerCalls, kWeCall };
  using ExchangeId = std::pair<Role, uint32_t>;

  // A running send. It lives in the frame of the SendMessage coroutine
  // that runs it; its exchange points at it. (A host crash ends that
  // frame and the receiver loop together, so no ack reaches a dead send.)
  struct Send {
    Send(sim::Host* host, uint8_t total) : total_segments(total),
                                           progress(host) {}

    uint8_t total_segments;
    uint8_t acked = 0;  // segments 1..acked are acknowledged
    // Signals ack progress; value is the new acknowledgment number
    // (UINT32_MAX for an implicit full ack).
    sim::Channel<uint32_t> progress;
  };

  // One call/return exchange seen from this side: our outgoing message
  // (the call if we sent it, else the return) and the incoming one.
  struct Exchange {
    // Holding nothing, the exchange is freed.
    bool idle() const {
      return send == nullptr && total_segments == 0 && !slot.has_value();
    }
    // Delivered, and in its peer's completed history.
    bool completed() const {
      return total_segments != 0 && ack_number == total_segments;
    }
    // The return slot, made if there is none.
    sim::Channel<Message>& Slot(sim::Host* host) {
      return slot.has_value() ? *slot : slot.emplace(host);
    }

    Send* send = nullptr;  // our running send, if any
    // The incoming message, from its first segment until the exchange
    // leaves the completed history: its segment count, the highest
    // consecutive segment received and, while a message of several
    // segments is reassembled, the segments.
    uint8_t total_segments = 0;
    uint8_t ack_number = 0;
    std::vector<std::optional<circus::Bytes>> parts;
    std::optional<sim::Channel<Message>> slot;  // our call's return
  };
  using ExchangeMap = std::map<ExchangeId, Exchange>;

  struct Peer {
    std::optional<sim::TimePoint> last_heard;  // probe bookkeeping
    ExchangeMap exchanges;
    // Completed exchanges, oldest first, at most
    // completed_history_per_peer of them.
    sim::Fifo<ExchangeMap::iterator> history;
    // Returns being sent to the peer: bounds the implicit-ack walk.
    size_t returns_sending = 0;
  };

  sim::Task<void> ReceiverLoop();
  void HandleSegment(const net::NetAddress& from, Segment seg);
  void HandleData(const net::NetAddress& from, Peer& peer, ExchangeId id,
                  Segment seg);
  void ApplyImplicitAcks(Peer& peer, ExchangeMap::iterator exchange,
                         MessageType type);
  void SendAck(const net::NetAddress& to, MessageType type,
               uint32_t call_number, uint8_t total_segments,
               uint8_t ack_number);
  void DeliverMessage(const net::NetAddress& from, Exchange& exchange,
                      MessageType type, uint32_t call_number,
                      circus::Bytes data);
  void FreeIfIdle(Peer& peer, ExchangeMap::iterator exchange);
  // Sends `seg`: a control segment as it is, a data segment header with
  // its slice of `message`.
  sim::Task<void> TransmitSegment(const net::NetAddress& to,
                                  const Segment& seg,
                                  const circus::Bytes* message,
                                  bool retransmission);
  // A timer interval with this endpoint's jitter applied.
  sim::Duration Jittered(sim::Duration base);
  // Publishes a segment-level event to the World's bus (no-op when
  // nobody subscribed). `c` is the kind-specific third field.
  void PublishSegmentEvent(obs::EventKind kind, const net::NetAddress& peer,
                           uint32_t call_number, uint64_t c);

  net::DatagramSocket* socket_;
  EndpointOptions options_;
  Counters counters_;
  sim::Rng jitter_rng_;
  // Observability hub (null outside a World); instrument pointers are
  // resolved once at construction.
  obs::EventBus* bus_ = nullptr;
  obs::Counter* retransmits_metric_ = nullptr;
  obs::Counter* probe_rounds_metric_ = nullptr;
  obs::Counter* duplicates_metric_ = nullptr;
  obs::Counter* crash_detections_metric_ = nullptr;

  sim::Channel<Message> incoming_calls_;
  // Every exchange, by peer. A peer's entry is kept once made.
  std::map<net::NetAddress, Peer> peers_;
};

}  // namespace circus::msg

#endif  // SRC_MSG_PAIRED_ENDPOINT_H_
