// Typed observability events. Every protocol layer publishes these to the
// per-World obs::EventBus (src/obs/bus.h); exporters (src/obs/export.h)
// and the TraceAssembler (src/obs/trace.h) consume them.
//
// The correlation key is the propagated logical thread of Section 3.4.1:
// one replicated call fans out across every troupe member, but all the
// resulting events carry the same (thread, thread_seq) pair, so the whole
// exchange reconstructs into a single trace tree. Timestamps are
// simulated time — never wall clocks — so an event stream is a pure
// function of the World seed and replays byte-for-byte.
//
// This library depends only on src/common so that every layer (net, msg,
// core, txn, binding, chaos) can publish without dependency cycles.
// obs::ThreadRef mirrors core::ThreadId field-for-field; publishers
// convert at the call site.
#ifndef SRC_OBS_EVENT_H_
#define SRC_OBS_EVENT_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"

namespace circus::obs {

// What happened. The `a`/`b`/`c` fields of Event are kind-specific;
// their meaning is documented per group below.
enum class EventKind : uint8_t {
  // --- net: one per send operation (multicast counts once), taken
  // before any fault injection. a = packed source address, b = packed
  // destination address (as addressed; may be a multicast group),
  // c = payload bytes, payload = the datagram. (Pack: host << 16 | port.)
  // Its delivery twin, kPacketDeliver, is at the end of the enum. ---
  kPacketSend = 0,

  // --- msg: paired message layer (origin = packed local address,
  //     a = packed peer address, b = call number, c = segment number
  //     unless noted) ---
  kSegmentSend,           // first transmission of a data segment
  kSegmentRetransmit,     // retransmission of an unacked segment
  kAckSend,               // explicit ack (c = acknowledgment number)
  kProbeSend,             // crash-detection probe (c = probe round)
  kMessageDelivered,      // fully reassembled message handed up
  kDuplicateSuppressed,   // completed exchange re-acked, not re-delivered
  kPeerCrashDetected,     // retransmit/probe budget exhausted

  // --- core: replicated procedure calls (thread + thread_seq set,
  //     a = module, b = procedure; payload = marshalled args/result —
  //     populated so trace consumers can replay Section 3.3 histories) ---
  kCallIssue,             // client issues call thread_seq (c = troupe size)
  kCallCollate,           // collator produced the call's outcome (c = 1 ok)
  kExecuteBegin,          // server member starts executing the call
  kExecuteEnd,            // server member finished (c = 1 ok)
  kLateReplyServed,       // buffered return re-sent to a lagging member
  kStaleBindingReject,    // call rejected: caller's binding is stale

  // --- txn: troupe commit (thread = transaction's thread,
  //     c = transaction number) ---
  kTxnVote,               // member's ready_to_commit vote (a = 1 commit)
  kTxnDecision,           // coordinator's decision (a = 1 commit)
  kTxnRetry,              // client restarts after deadlock abort (a = attempt)
  kTxnResolved,           // transaction finished for good (a = 1 committed)

  // --- txn: ordered broadcast (a = message id, b = logical time) ---
  kBroadcastPropose,      // member proposes a delivery time
  kBroadcastAccept,       // sender-chosen final time accepted
  kBroadcastDeliver,      // message delivered in final-time order

  // --- binding: ringmaster + reconfigurer (a = troupe id value) ---
  kTroupeRegistered,      // ringmaster registered a troupe (detail = name)
  kTroupeMemberAdded,     // member added to a registration (detail = addr)
  kTroupeMemberRemoved,   // member removed (detail = addr)
  kReconfigSweep,         // maintenance sweep done (a = launched, b = retired)

  // --- rt: real-runtime diagnostics (only published by src/rt) ---
  kLoopWakeup,            // epoll wakeup (a = ready fds, b = 1 if the
                          // timer fired, c = timer slack vs. deadline, ns)
  kSocketStall,           // sendto hit EAGAIN/ENOBUFS backpressure
                          // (a = packed destination, c = errno)

  // --- core: latency-attribution boundary events (thread + thread_seq
  //     set, a = module, b = procedure). These mark the stage boundaries
  //     that kCallIssue/kExecuteBegin alone cannot resolve; the
  //     LatencyAttributor (src/obs/latency.h) telescopes them into a
  //     per-stage timeline. ---
  kCallFanout,            // client finished marshalling, first segment of
                          // the fan-out is about to leave (c = the
                          // paired-message call number shared by every
                          // member leg — the join key to segment events)
  kCallAdmit,             // server admitted the first message of an
                          // inbound call to the dispatch queue
                          // (c = paired-message call number)

  // --- obs: diagnostics emitted by observers themselves ---
  kSlowCall,              // a call exceeded the slow-call threshold
                          // (a = end-to-end ns, b = threshold ns,
                          // detail = per-stage breakdown)
  kSaturation,            // a resource crossed a saturation level
                          // (detail = resource name, a = utilization in
                          // basis points, b = new level 0 ok / 1 high /
                          // 2 saturated, c = queue depth)

  // --- net: one per datagram handed to a socket (a network-duplicated
  //     datagram is delivered, and published, twice). Fields as
  //     kPacketSend, except that b is the receiving socket's bound
  //     address even when the datagram was addressed to a multicast
  //     group, so every delivery names the local party on both fabrics.
  //     Appended last so the earlier kinds keep their values. ---
  kPacketDeliver,
};

constexpr EventKind kLastEventKind = EventKind::kPacketDeliver;

// True for the two datagram kinds, whose payload is the datagram itself.
constexpr bool IsPacketEvent(EventKind kind) {
  return kind == EventKind::kPacketSend || kind == EventKind::kPacketDeliver;
}

// Stable lower_snake name for exports ("segment_send", "call_issue", ...).
const char* EventKindName(EventKind kind);

// Inverse of EventKindName; false when `name` names no kind (e.g. a
// foreign or future shard line — callers skip those tolerantly).
bool EventKindFromName(std::string_view name, EventKind* out);

// Mirrors core::ThreadId (machine, port, local) without depending on
// src/core. A value-initialised ThreadRef means "no thread": events below
// the stub layer (segments, packets) are not thread-attributed.
struct ThreadRef {
  uint32_t machine = 0;
  uint16_t port = 0;
  uint16_t local = 0;

  constexpr auto operator<=>(const ThreadRef&) const = default;
  bool zero() const { return machine == 0 && port == 0 && local == 0; }
  // Same rendering as core::ThreadId::ToString so keys line up across
  // the obs stream and model::TraceRecorder: "thread:%08x:%u:%u".
  std::string ToString() const;
};

// Packs a (host address, port) pair into the a/b/origin fields the same
// way NetAddressHash does: host << 16 | port.
constexpr uint64_t PackAddress(uint32_t host, uint16_t port) {
  return (static_cast<uint64_t>(host) << 16) | port;
}
constexpr uint32_t PackedAddressHost(uint64_t packed) {
  return static_cast<uint32_t>(packed >> 16);
}
constexpr uint16_t PackedAddressPort(uint64_t packed) {
  return static_cast<uint16_t>(packed & 0xFFFF);
}
// "10.0.0.3:9000" from a packed address (dotted-quad, like
// net::NetAddress::ToString).
std::string PackedAddressToString(uint64_t packed);

struct Event {
  int64_t time_ns = -1;  // simulated time; stamped by the bus if < 0
  EventKind kind = EventKind::kPacketSend;
  uint32_t host = 0;     // sim host id of the publisher (0 = none)
  // Per-process incarnation stamped by the bus (0 inside the simulated
  // World). Real-runtime nodes derive a fresh value per OS process so a
  // merged multi-process trace can tell a rebooted node from its
  // predecessor even though both carry the same address.
  uint64_t incarnation = 0;
  uint64_t origin = 0;   // packed address of the publishing endpoint/process
  ThreadRef thread;      // logical thread (zero below the stub layer)
  uint32_t thread_seq = 0;  // per-thread call sequence number
  uint64_t a = 0;        // kind-specific (see EventKind)
  uint64_t b = 0;
  uint64_t c = 0;
  circus::Bytes payload;  // kind-specific bytes (call args / results)
  std::string detail;     // human-readable annotation (name, txn id, ...)
};

}  // namespace circus::obs

#endif  // SRC_OBS_EVENT_H_
