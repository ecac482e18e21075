// Segment wire format of the Circus paired message protocol, following
// Figure 4.2 of the dissertation byte for byte:
//
//   byte 0      message type (0 = call, 1 = return)
//   byte 1      control bits (bit 0 = please ack, bit 1 = ack)
//   byte 2      total segments in the message (1..255)
//   byte 3      segment number (data: 1..total; ack: acknowledgment number)
//   bytes 4..7  call number, unsigned 32-bit, most significant byte first
//   bytes 8..   message data (data segments only)
//
// A data segment carries a slice of the message; a control segment is a
// bare header used to send or request acknowledgment information.
#ifndef SRC_MSG_SEGMENT_H_
#define SRC_MSG_SEGMENT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/bytes.h"

namespace circus::msg {

// Process-global segment encode accounting, one of the allocation hot
// spots the utilization telemetry watches (src/obs/util.h): every
// Encode allocates one wire buffer. Monotonic; probes baseline at
// registration and report deltas.
struct SegmentStats {
  uint64_t segments = 0;
  uint64_t bytes = 0;
};
inline SegmentStats& GlobalSegmentStats() {
  static SegmentStats stats;
  return stats;
}

enum class MessageType : uint8_t {
  kCall = 0,
  kReturn = 1,
};

inline constexpr size_t kSegmentHeaderBytes = 8;
// Paper: total segments must be in 1..255.
inline constexpr int kMaxSegmentsPerMessage = 255;

struct Segment {
  MessageType type = MessageType::kCall;
  bool please_ack = false;
  bool ack = false;
  uint8_t total_segments = 1;
  // Data segment: 1..total_segments. Ack segment: all segments with
  // numbers <= this value have been received. Probe (control, non-ack):
  // 0.
  uint8_t segment_number = 0;
  uint32_t call_number = 0;
  circus::Bytes data;

  // Data segments carry segment_number >= 1; probes (ack requests) are
  // non-ack control segments with segment_number == 0, so zero-length
  // messages remain representable.
  bool is_data() const { return !ack && segment_number >= 1; }
  bool is_probe() const { return !ack && segment_number == 0; }

  bool operator==(const Segment&) const = default;

  // The wire form: this header followed by `data`.
  circus::Bytes Encode() const;
  // The wire form of this header followed by `n` bytes at `slice`
  // instead of the segment's own data: a sender encodes each slice of a
  // message straight from the one buffer holding the whole message.
  circus::Bytes EncodeWith(const uint8_t* slice, size_t n) const;
  // Parses a datagram. The rvalue overload strips the header in place and
  // keeps the datagram's buffer as `data`; the other decodes a copy.
  static std::optional<Segment> Decode(circus::Bytes&& raw);
  static std::optional<Segment> Decode(const circus::Bytes& raw);
};

// How many data segments a `size`-byte message takes: at most
// `segment_data_bytes` each, and at least one, so a zero-length message
// is representable. CHECK-fails if the message would need more than 255.
uint8_t SegmentCount(size_t size, size_t segment_data_bytes);

// A segment without data: data segment `number` (1..total) of a
// `total`-segment message, or with `number` 0 a probe.
Segment SegmentHeader(MessageType type, uint32_t call_number, uint8_t total,
                      int number);

// The bytes of `message` that data segment `segment_number` carries.
std::span<const uint8_t> SegmentSlice(const circus::Bytes& message,
                                      uint8_t segment_number,
                                      size_t segment_data_bytes);

// The data segments of a message, each with its slice copied into `data`.
std::vector<Segment> Segmentize(MessageType type, uint32_t call_number,
                                const circus::Bytes& data,
                                size_t segment_data_bytes);

}  // namespace circus::msg

#endif  // SRC_MSG_SEGMENT_H_
