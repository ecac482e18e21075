#include "src/msg/segment.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace circus::msg {

namespace {
constexpr uint8_t kPleaseAckBit = 0x01;
constexpr uint8_t kAckBit = 0x02;
}  // namespace

circus::Bytes Segment::Encode() const {
  return EncodeWith(data.data(), data.size());
}

circus::Bytes Segment::EncodeWith(const uint8_t* slice, size_t n) const {
  circus::Bytes out;
  out.reserve(kSegmentHeaderBytes + n);
  out.push_back(static_cast<uint8_t>(type));
  uint8_t control = 0;
  if (please_ack) {
    control |= kPleaseAckBit;
  }
  if (ack) {
    control |= kAckBit;
  }
  out.push_back(control);
  out.push_back(total_segments);
  out.push_back(segment_number);
  out.push_back(static_cast<uint8_t>(call_number >> 24));
  out.push_back(static_cast<uint8_t>(call_number >> 16));
  out.push_back(static_cast<uint8_t>(call_number >> 8));
  out.push_back(static_cast<uint8_t>(call_number));
  out.insert(out.end(), slice, slice + n);
  SegmentStats& stats = GlobalSegmentStats();
  ++stats.segments;
  stats.bytes += out.size();
  return out;
}

std::optional<Segment> Segment::Decode(circus::Bytes&& raw) {
  if (raw.size() < kSegmentHeaderBytes) {
    return std::nullopt;
  }
  if (raw[0] > 1) {
    return std::nullopt;  // unknown message type
  }
  Segment s;
  s.type = static_cast<MessageType>(raw[0]);
  s.please_ack = (raw[1] & kPleaseAckBit) != 0;
  s.ack = (raw[1] & kAckBit) != 0;
  s.total_segments = raw[2];
  s.segment_number = raw[3];
  s.call_number = (static_cast<uint32_t>(raw[4]) << 24) |
                  (static_cast<uint32_t>(raw[5]) << 16) |
                  (static_cast<uint32_t>(raw[6]) << 8) | raw[7];
  if (s.total_segments == 0) {
    return std::nullopt;
  }
  raw.erase(raw.begin(), raw.begin() + kSegmentHeaderBytes);
  s.data = std::move(raw);
  return s;
}

std::optional<Segment> Segment::Decode(const circus::Bytes& raw) {
  return Decode(circus::Bytes(raw));
}

uint8_t SegmentCount(size_t size, size_t segment_data_bytes) {
  CIRCUS_CHECK(segment_data_bytes > 0);
  const size_t count =
      size == 0 ? 1 : (size + segment_data_bytes - 1) / segment_data_bytes;
  CIRCUS_CHECK_MSG(count <= kMaxSegmentsPerMessage,
                   "message too large for 255 segments");
  return static_cast<uint8_t>(count);
}

Segment SegmentHeader(MessageType type, uint32_t call_number, uint8_t total,
                      int number) {
  Segment s;
  s.type = type;
  s.call_number = call_number;
  s.total_segments = total;
  s.segment_number = static_cast<uint8_t>(number);
  return s;
}

std::span<const uint8_t> SegmentSlice(const circus::Bytes& message,
                                      uint8_t segment_number,
                                      size_t segment_data_bytes) {
  const size_t begin = std::min(
      (segment_number - 1) * segment_data_bytes, message.size());
  const size_t end = std::min(begin + segment_data_bytes, message.size());
  return std::span<const uint8_t>(message).subspan(begin, end - begin);
}

std::vector<Segment> Segmentize(MessageType type, uint32_t call_number,
                                const circus::Bytes& data,
                                size_t segment_data_bytes) {
  const uint8_t total = SegmentCount(data.size(), segment_data_bytes);
  std::vector<Segment> out;
  out.reserve(total);
  for (int n = 1; n <= total; ++n) {
    Segment& s = out.emplace_back(SegmentHeader(type, call_number, total, n));
    const std::span<const uint8_t> slice =
        SegmentSlice(data, s.segment_number, segment_data_bytes);
    s.data.assign(slice.begin(), slice.end());
  }
  return out;
}

}  // namespace circus::msg
