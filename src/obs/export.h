// Exporters for the obs event stream.
//
//  * ToJsonLines: one JSON object per event per line, in publish order —
//    the scripting-friendly format. Byte-identical across runs of the
//    same seed.
//  * ToChromeTrace: Chrome trace_event "JSON Object Format"
//    ({"traceEvents": [...]}) loadable in chrome://tracing or Perfetto.
//    Span kinds (call issue/collate, execute begin/end) pair into "X"
//    complete events; everything else becomes an instant. pid = sim host
//    id, tid = a small per-logical-thread index, and metadata records
//    give processes their host names and threads their ThreadId strings.
#ifndef SRC_OBS_EXPORT_H_
#define SRC_OBS_EXPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/event.h"
#include "src/obs/json.h"

namespace circus::obs {

// The canonical JSONL rendering of one event (shared by ToJsonLines and
// the trace-shard writer); EventFromJson in src/obs/shard.h inverts it.
// Packet events carry their datagram as hex `data`; other kinds export
// only their payload's size (`payload_bytes`).
json::Value EventToJson(const Event& e);

std::string ToJsonLines(const std::vector<Event>& events);

std::string ToChromeTrace(
    const std::vector<Event>& events,
    const std::map<uint32_t, std::string>& host_names = {});

// Writes `content` to `path` (replacing it). kUnavailable on I/O error.
circus::Status WriteStringToFile(const std::string& path,
                                 const std::string& content);

}  // namespace circus::obs

#endif  // SRC_OBS_EXPORT_H_
