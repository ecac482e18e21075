// Wire-level decode and audit of the fabric's packet events
// (obs::EventKind::kPacketSend / kPacketDeliver, which carry the
// datagram), read live off an event bus or from trace shards.
//
// The decoder parses each packet event back into a msg::Segment
// and attributes it to the local party that sent or received it; the
// auditor then reconstructs per-(pair, call_number) conversation state
// machines and replays every conversation against the Section 4.2
// rules of the paired message protocol, reporting violations:
//
//   * ack for a segment the peer never sent (either direction),
//   * retransmission before the (jittered) retransmit timeout,
//   * a return sent for a call that never fully arrived (sequence gap
//     at delivery),
//   * call identifier reuse — the same (call_number, segment) carrying
//     different payload bytes across an incarnation,
//   * probe storms — probes faster than the probe interval, or more
//     consecutive unanswered probes than the silence budget allows
//     before the peer must be declared crashed,
//   * troupe-member-to-member packets (Section 4.3.3), when the member
//     address set is supplied.
//
// It also rolls up per-call wire cost (packets, bytes, retransmits,
// explicit acks, and acks saved by piggybacking — the Section 4.2.4
// postponed-acknowledgment win), which EXPERIMENTS.md E17 uses to
// reproduce the packet-count analysis.
//
// The auditor is deliberately conservative: checks that would need a
// complete view of the traffic (ack validity, delivery gaps, probe
// silence budgets) are skipped for nodes whose shard is incomplete
// (recorded drops, a truncated tail, or skipped lines), so a bounded
// shard never manufactures violations.
#ifndef SRC_OBS_WIRE_H_
#define SRC_OBS_WIRE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/msg/paired_endpoint.h"
#include "src/msg/segment.h"
#include "src/net/address.h"
#include "src/obs/bus.h"
#include "src/obs/event.h"
#include "src/obs/shard.h"

namespace circus::obs::wire {

// Timing floors and budgets the audited run was configured with,
// derived from its msg::EndpointOptions. The floors carry a 5% safety
// margin below the minimum jittered timer so rounding at the clock
// seam never flags a legal retransmission.
struct AuditOptions {
  int64_t retransmit_floor_ns = 0;
  int64_t probe_floor_ns = 0;
  int max_silent_probes = 5;
  // Troupe member process addresses; non-empty enables the
  // member-to-member check (Section 4.3.3: members of one troupe never
  // talk to each other directly).
  std::vector<net::NetAddress> member_addresses;
};

// Options matching a run that used `options` (AuditOptions{} is NOT a
// usable default — floors of 0 disable the timing checks).
AuditOptions AuditOptionsFor(const msg::EndpointOptions& options);

// One packet event decoded back into a segment, attributed to the
// observing party: `node` is the local endpoint (source on a send,
// destination on a delivery) and `remote` the other side (which is the
// group address on a multicast send).
struct WireSegment {
  int64_t time_ns = 0;
  bool send = false;  // kPacketSend: entered the wire; else delivered
  size_t bytes = 0;   // datagram size
  msg::Segment segment;
  net::NetAddress node;
  net::NetAddress remote;
};

// Decodes a packet event. nullopt for other event kinds and for
// datagrams that are not segments (e.g. the rt stats endpoint's text
// replies sharing an observed process).
std::optional<WireSegment> DecodePacket(const Event& event);

// Wire cost of one conversation, seen from its node.
struct WireCost {
  uint64_t packets_sent = 0;
  uint64_t packets_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t data_segments = 0;  // distinct data segments first sent
  uint64_t retransmits = 0;    // transmissions beyond the first, per dest
  uint64_t probes = 0;
  uint64_t acks_sent = 0;
  uint64_t acks_received = 0;
  // Completions acknowledged implicitly (by the return, or by a later
  // call) instead of by an explicit ack segment: the acks piggybacking
  // saved (Section 4.2.4).
  uint64_t implicit_acks = 0;
};

// One reconstructed conversation: the view one node's packets give of
// the exchange with call number `call_number`. A caller-view
// conversation covers the outbound call and inbound return; a
// callee-view conversation the inverse. In a whole-world stream a
// replicated call appears as one caller view on the client node plus
// one callee view per member.
struct Conversation {
  enum class Phase {
    kCalling,        // call message in flight
    kCallDelivered,  // every call segment accounted for
    kReturning,      // return message in flight (callee view)
    kDone,           // return delivered / return acknowledged
  };

  net::NetAddress node;
  uint32_t call_number = 0;
  bool caller = false;  // true: node issued the call; false: it served it
  Phase phase = Phase::kCalling;
  std::vector<net::NetAddress> remotes;  // peers seen, sorted (a group
                                         // address for multicast sends)
  WireCost cost;
};

struct AuditReport {
  std::vector<std::string> violations;
  // Sorted by (node, call_number, caller-view-first).
  std::vector<Conversation> conversations;
  uint64_t records = 0;  // packet events, both directions
  uint64_t packets = 0;  // send events
  uint64_t bytes = 0;    // send payload bytes
  uint64_t undecodable = 0;
  // False when any audited source was incomplete; completeness-
  // dependent checks were skipped for the affected nodes.
  bool complete = true;

  WireCost Totals() const;
  size_t CompletedCalls() const;  // caller-view conversations at kDone

  // Deterministic multi-line rendering: summary, totals, violations,
  // then one line per conversation. Byte-identical for byte-identical
  // inputs; `max_violations` bounds the violation listing (the full
  // list stays in `violations`).
  std::string Render(size_t max_violations = 50,
                     bool include_conversations = true) const;
};

// Streaming auditor: feed packet events one at a time — live from a bus
// (a whole sim World, or one rt process) or from trace shards — then
// Finish(). Events of other kinds are ignored, so a whole shard or bus
// stream can be fed as is.
class WireAuditor {
 public:
  explicit WireAuditor(AuditOptions options);
  WireAuditor(const WireAuditor&) = delete;
  WireAuditor& operator=(const WireAuditor&) = delete;
  ~WireAuditor();

  // Subscribes to `bus` (which must outlive the attachment) and audits
  // every packet event as it is published.
  void Attach(EventBus* bus);
  void Detach();

  // `complete` is false when the event's source lost events; the
  // event's node then keeps only its drop-tolerant checks. Events must
  // arrive in publish order (time order per node).
  void Observe(const Event& event, bool complete = true);
  // Audits a shard's events, as incomplete unless shard.complete().
  void AddShard(const ShardFile& shard);

  AuditReport Finish();

 private:
  struct SentMessage {
    uint8_t total_segments = 0;
    std::map<uint8_t, circus::Bytes> payloads;
  };
  struct ReceivedMessage {
    uint8_t total_segments = 0;
    std::set<uint8_t> segments;
    bool Complete() const {
      return total_segments != 0 && segments.size() >= total_segments;
    }
  };
  struct ProbeState {
    int64_t last_ns = 0;
    int silent_streak = 0;
    bool storm_flagged = false;
  };
  struct NodeState {
    bool complete = true;
    // Sent data, keyed (type, call, dest) — dest collapsed to one key
    // for calls, whose multicast blast and unicast fallback carry the
    // same logical message to different destinations.
    std::map<std::tuple<int, uint32_t, net::NetAddress>, SentMessage> sent;
    // Highest data segment sent per (type, call), across destinations.
    std::map<std::pair<int, uint32_t>, uint8_t> max_sent;
    // Last transmission per (dest, type, call, segment).
    std::map<std::tuple<net::NetAddress, int, uint32_t, uint8_t>, int64_t>
        last_send;
    std::map<std::tuple<net::NetAddress, int, uint32_t>, ReceivedMessage>
        received;
    std::map<std::pair<net::NetAddress, uint32_t>, ProbeState> probes;
    std::map<net::NetAddress, int64_t> last_heard;
    std::map<std::pair<uint32_t, bool>, Conversation> conversations;
    // Calls whose final segment got an explicit ack (so the return did
    // not double as one) and returns still awaiting any ack per peer —
    // the implicit-ack bookkeeping (Section 4.2.4).
    std::set<uint32_t> final_call_ack;
    std::map<net::NetAddress, std::set<uint32_t>> pending_returns;
  };

  Conversation& ConversationFor(NodeState& state,
                                const net::NetAddress& node,
                                const WireSegment& ws, bool caller);
  void ObserveSendRecord(NodeState& state, const WireSegment& ws);
  void ObserveRecvRecord(NodeState& state, const WireSegment& ws);
  void AddViolation(const WireSegment& ws, const std::string& what);

  AuditOptions options_;
  EventBus* bus_ = nullptr;
  EventBus::SubscriberId subscriber_id_ = 0;
  std::set<net::NetAddress> members_;
  std::set<std::pair<net::NetAddress, net::NetAddress>> member_pairs_seen_;
  std::map<net::NetAddress, NodeState> nodes_;
  AuditReport report_;
};

// Convenience: read and audit trace shards together (the `circus wire`
// CLI path). Fails if any file cannot be read or is not a shard.
circus::StatusOr<AuditReport> AuditShardFiles(
    const std::vector<std::string>& paths, const AuditOptions& options);

}  // namespace circus::obs::wire

#endif  // SRC_OBS_WIRE_H_
