#include "src/core/wire.h"

#include <utility>

#include "src/marshal/marshal.h"

namespace circus::core {

namespace {

// Bytes before the arguments: thread ID (8), thread_seq (4), the two
// troupe IDs (16), module and procedure (4), and the arguments' length
// prefix (4).
constexpr size_t kCallHeaderBytes = 36;

// Takes the length-prefixed byte sequence that must end `raw`, the
// reader having consumed everything before its length prefix. The
// sequence stays in `raw`'s buffer: the prefix is erased in place and
// the buffer moved to `out`. False if the length does not match what is
// left, as Reader::ReadBytes followed by an AtEnd check would find.
bool TakeTrailingBytes(marshal::Reader& r, circus::Bytes& raw,
                       circus::Bytes* out) {
  const uint32_t length = r.ReadU32();
  if (!r.ok() || r.remaining() != length) {
    return false;
  }
  raw.erase(raw.begin(), raw.end() - length);
  *out = std::move(raw);
  return true;
}

}  // namespace

circus::Bytes CallBody::Encode() const {
  marshal::Writer w;
  w.Reserve(kCallHeaderBytes + arguments.size());
  w.WriteU32(thread.machine);
  w.WriteU16(thread.port);
  w.WriteU16(thread.local);
  w.WriteU32(thread_seq);
  w.WriteU64(client_troupe.value);
  w.WriteU64(server_troupe.value);
  w.WriteU16(module);
  w.WriteU16(procedure);
  w.WriteBytes(arguments);
  return w.Take();
}

std::optional<CallBody> CallBody::Decode(circus::Bytes&& raw) {
  marshal::Reader r(raw);
  CallBody b;
  b.thread.machine = r.ReadU32();
  b.thread.port = r.ReadU16();
  b.thread.local = r.ReadU16();
  b.thread_seq = r.ReadU32();
  b.client_troupe.value = r.ReadU64();
  b.server_troupe.value = r.ReadU64();
  b.module = r.ReadU16();
  b.procedure = r.ReadU16();
  if (!TakeTrailingBytes(r, raw, &b.arguments)) {
    return std::nullopt;
  }
  return b;
}

std::optional<CallBody> CallBody::Decode(const circus::Bytes& raw) {
  return Decode(circus::Bytes(raw));
}

circus::Bytes ReturnBody::Encode() const {
  marshal::Writer w;
  // The 16-bit header, then the error code and message, or the results,
  // behind a 32-bit length.
  w.Reserve(is_error ? 2 + 2 + 4 + error_message.size()
                     : 2 + 4 + results.size());
  w.WriteU16(is_error ? 1 : 0);
  if (is_error) {
    w.WriteU16(static_cast<uint16_t>(error_code));
    w.WriteString(error_message);
  } else {
    w.WriteBytes(results);
  }
  return w.Take();
}

std::optional<ReturnBody> ReturnBody::Decode(circus::Bytes&& raw) {
  marshal::Reader r(raw);
  ReturnBody b;
  b.is_error = (r.ReadU16() == 1);
  if (b.is_error) {
    b.error_code = static_cast<ErrorCode>(r.ReadU16());
    b.error_message = r.ReadString();
    if (!r.AtEnd()) {
      return std::nullopt;
    }
  } else if (!TakeTrailingBytes(r, raw, &b.results)) {
    return std::nullopt;
  }
  return b;
}

std::optional<ReturnBody> ReturnBody::Decode(const circus::Bytes& raw) {
  return Decode(circus::Bytes(raw));
}

}  // namespace circus::core
