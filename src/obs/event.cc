#include "src/obs/event.h"

#include <cstdio>

namespace circus::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kPacketSend:
      return "packet_send";
    case EventKind::kSegmentSend:
      return "segment_send";
    case EventKind::kSegmentRetransmit:
      return "segment_retransmit";
    case EventKind::kAckSend:
      return "ack_send";
    case EventKind::kProbeSend:
      return "probe_send";
    case EventKind::kMessageDelivered:
      return "message_delivered";
    case EventKind::kDuplicateSuppressed:
      return "duplicate_suppressed";
    case EventKind::kPeerCrashDetected:
      return "peer_crash_detected";
    case EventKind::kCallIssue:
      return "call_issue";
    case EventKind::kCallCollate:
      return "call_collate";
    case EventKind::kExecuteBegin:
      return "execute_begin";
    case EventKind::kExecuteEnd:
      return "execute_end";
    case EventKind::kLateReplyServed:
      return "late_reply_served";
    case EventKind::kStaleBindingReject:
      return "stale_binding_reject";
    case EventKind::kTxnVote:
      return "txn_vote";
    case EventKind::kTxnDecision:
      return "txn_decision";
    case EventKind::kTxnRetry:
      return "txn_retry";
    case EventKind::kTxnResolved:
      return "txn_resolved";
    case EventKind::kBroadcastPropose:
      return "broadcast_propose";
    case EventKind::kBroadcastAccept:
      return "broadcast_accept";
    case EventKind::kBroadcastDeliver:
      return "broadcast_deliver";
    case EventKind::kTroupeRegistered:
      return "troupe_registered";
    case EventKind::kTroupeMemberAdded:
      return "troupe_member_added";
    case EventKind::kTroupeMemberRemoved:
      return "troupe_member_removed";
    case EventKind::kReconfigSweep:
      return "reconfig_sweep";
    case EventKind::kLoopWakeup:
      return "loop_wakeup";
    case EventKind::kSocketStall:
      return "socket_stall";
    case EventKind::kCallFanout:
      return "call_fanout";
    case EventKind::kCallAdmit:
      return "call_admit";
    case EventKind::kSlowCall:
      return "slow_call";
    case EventKind::kSaturation:
      return "saturation";
    case EventKind::kPacketDeliver:
      return "packet_deliver";
  }
  return "unknown";
}

bool EventKindFromName(std::string_view name, EventKind* out) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(kLastEventKind);
       ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (name == EventKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::string ThreadRef::ToString() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "thread:%08x:%u:%u", machine, port, local);
  return buf;
}

std::string PackedAddressToString(uint64_t packed) {
  const uint32_t host = PackedAddressHost(packed);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u", (host >> 24) & 0xFF,
                (host >> 16) & 0xFF, (host >> 8) & 0xFF, host & 0xFF,
                PackedAddressPort(packed));
  return buf;
}

}  // namespace circus::obs
