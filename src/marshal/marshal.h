// Externalization and internalization (Figure 7.1): translation between
// internal representations and a standard external byte-sequence form.
// The external representation follows the Courier conventions the Circus
// stub compiler used (Section 7.1.1): big-endian integers, 16-bit
// cardinals/integers as the base numeric types, length-prefixed strings
// and sequences, enumerations as 16-bit values, and discriminated unions
// as a 16-bit tag followed by the chosen arm.
//
// Writer appends; Reader consumes with an error flag (a failed read
// poisons the reader and subsequent reads return defaults), so generated
// stub code can decode a whole message and check ok() once at the end.
#ifndef SRC_MARSHAL_MARSHAL_H_
#define SRC_MARSHAL_MARSHAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"

namespace circus::marshal {

// Process-global marshal buffer accounting, one of the allocation hot
// spots the utilization telemetry watches (src/obs/util.h). Charged
// when a Writer's buffer is taken — one completed marshalled message.
// Monotonic; probes baseline at registration and report deltas, so sim
// runs stay deterministic even when several Worlds share a process.
struct BufferStats {
  uint64_t buffers = 0;
  uint64_t bytes = 0;
};
inline BufferStats& GlobalBufferStats() {
  static BufferStats stats;
  return stats;
}

class Writer {
 public:
  Writer() = default;

  // Sizes the buffer for `n` bytes in all, so a writer that knows its
  // message's length up front allocates once instead of growing.
  void Reserve(size_t n) { out_.reserve(n); }

  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU8(uint8_t v) { out_.push_back(v); }
  void WriteU16(uint16_t v);   // Courier CARDINAL
  void WriteU32(uint32_t v);   // Courier LONG CARDINAL
  void WriteU64(uint64_t v);
  void WriteI16(int16_t v) { WriteU16(static_cast<uint16_t>(v)); }
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteF64(double v);
  // STRING: 32-bit length + bytes.
  void WriteString(const std::string& v);
  // SEQUENCE OF UNSPECIFIED (raw bytes): 32-bit length + bytes.
  void WriteBytes(const circus::Bytes& v);
  // Enumeration value (16-bit on the wire).
  template <typename E>
  void WriteEnum(E v) {
    WriteU16(static_cast<uint16_t>(v));
  }
  // Union tag (16-bit), followed by the arm written by the caller.
  void WriteUnionTag(uint16_t tag) { WriteU16(tag); }
  // SEQUENCE OF T via a per-element writer callable.
  template <typename T, typename Fn>
  void WriteSequence(const std::vector<T>& items, Fn&& write_element) {
    WriteU32(static_cast<uint32_t>(items.size()));
    for (const T& item : items) {
      write_element(*this, item);
    }
  }

  const circus::Bytes& bytes() const { return out_; }
  circus::Bytes Take() {
    BufferStats& stats = GlobalBufferStats();
    ++stats.buffers;
    stats.bytes += out_.size();
    return std::move(out_);
  }
  size_t size() const { return out_.size(); }

 private:
  circus::Bytes out_;
};

class Reader {
 public:
  explicit Reader(const circus::Bytes& data) : data_(data) {}
  // A Reader only references the buffer; binding it to a temporary
  // (e.g. Reader(*store.Peek(key))) would dangle immediately.
  explicit Reader(circus::Bytes&&) = delete;

  bool ReadBool() { return ReadU8() != 0; }
  uint8_t ReadU8();
  uint16_t ReadU16();
  uint32_t ReadU32();
  uint64_t ReadU64();
  int16_t ReadI16() { return static_cast<int16_t>(ReadU16()); }
  int32_t ReadI32() { return static_cast<int32_t>(ReadU32()); }
  int64_t ReadI64() { return static_cast<int64_t>(ReadU64()); }
  double ReadF64();
  std::string ReadString();
  circus::Bytes ReadBytes();
  template <typename E>
  E ReadEnum() {
    return static_cast<E>(ReadU16());
  }
  uint16_t ReadUnionTag() { return ReadU16(); }
  template <typename T, typename Fn>
  std::vector<T> ReadSequence(Fn&& read_element) {
    const uint32_t count = ReadU32();
    std::vector<T> out;
    // Guard against hostile lengths: never reserve more than remaining
    // bytes could possibly encode.
    if (count > remaining()) {
      Poison();
      return out;
    }
    out.reserve(count);
    for (uint32_t i = 0; i < count && ok_; ++i) {
      out.push_back(read_element(*this));
    }
    return out;
  }

  // True iff every read so far was in bounds.
  bool ok() const { return ok_; }
  // True iff ok and all input was consumed.
  bool AtEnd() const { return ok_ && offset_ == data_.size(); }
  size_t remaining() const { return data_.size() - offset_; }
  void Poison() { ok_ = false; }

 private:
  bool Need(size_t n);
  const circus::Bytes& data_;
  size_t offset_ = 0;
  bool ok_ = true;
};

}  // namespace circus::marshal

#endif  // SRC_MARSHAL_MARSHAL_H_
