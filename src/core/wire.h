// Call and return message contents (Section 4.3). The paired message
// layer treats these as uninterpreted bytes.
//
// A call message carries the caller's thread ID (for the propagation
// algorithm of Section 3.4.1), the client troupe ID (so the server can
// collect the full many-to-one call, Section 4.3.2), the destination
// troupe ID (the incarnation-number check of Section 6.2), the module and
// procedure numbers, and the externalized parameters.
//
// A return message carries a 16-bit header distinguishing normal from
// error results (Section 4.3), an error code/description when
// applicable, and the externalized results.
#ifndef SRC_CORE_WIRE_H_
#define SRC_CORE_WIRE_H_

#include <optional>
#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/core/types.h"

namespace circus::core {

struct CallBody {
  ThreadId thread;
  // Per-thread call sequence number. Deterministic troupe members issue
  // identical sequences for the same logical thread, so the triple
  // (client troupe ID, thread ID, thread_seq) identifies one replicated
  // call at the server (Section 4.3.2). The dissertation derives this
  // from the paired-message call number; carrying it explicitly keeps
  // the grouping correct even when one process multiplexes several
  // threads over one socket (see DESIGN.md).
  uint32_t thread_seq = 0;
  TroupeId client_troupe;
  TroupeId server_troupe;
  ModuleNumber module = 0;
  ProcedureNumber procedure = 0;
  circus::Bytes arguments;

  bool operator==(const CallBody&) const = default;

  circus::Bytes Encode() const;
  // The rvalue overload takes the trailing arguments by erasing the
  // header in place, keeping `raw`'s buffer; the other decodes a copy.
  static std::optional<CallBody> Decode(circus::Bytes&& raw);
  static std::optional<CallBody> Decode(const circus::Bytes& raw);
};

struct ReturnBody {
  // Header value 0 = normal result; 1 = error result.
  bool is_error = false;
  ErrorCode error_code = ErrorCode::kOk;
  std::string error_message;
  circus::Bytes results;

  bool operator==(const ReturnBody&) const = default;

  circus::Bytes Encode() const;
  // As CallBody::Decode: the rvalue overload keeps `raw`'s buffer as the
  // results.
  static std::optional<ReturnBody> Decode(circus::Bytes&& raw);
  static std::optional<ReturnBody> Decode(const circus::Bytes& raw);

  static ReturnBody Success(circus::Bytes results) {
    return ReturnBody{false, ErrorCode::kOk, "", std::move(results)};
  }
  static ReturnBody Error(ErrorCode code, std::string message) {
    return ReturnBody{true, code, std::move(message), {}};
  }
  circus::StatusOr<circus::Bytes> ToStatusOr() && {
    if (is_error) {
      return circus::Status(error_code, std::move(error_message));
    }
    return std::move(results);
  }
};

}  // namespace circus::core

#endif  // SRC_CORE_WIRE_H_
