// Per-node trace shards: the on-disk event stream of one process.
//
// A shard is a JSONL file — a header object first ({"shard":
// "circus-trace", ...} with the node's identity and incarnation), then
// one event per line in the canonical EventToJson rendering. Each
// `circus node` writes its own shard; `circus merge` (and the
// functions in src/obs/merge.h) join N shards from N processes into one
// Chrome trace, correlating by the propagated Section 3.4.1 thread ID.
// Packet events carry their datagrams, so a shard is also the node's
// wire capture: `circus wire` audits shards (src/obs/wire.h).
//
// The writer buffers events in a bounded ring and appends to the file
// only on Flush(), so a hot protocol path never blocks on disk I/O and
// a wedged filesystem costs bounded memory. Overflow drops the oldest
// unflushed lines and leaves a counted {"shard_drop":N} marker, so a
// reader knows the shard is incomplete. A crash between flushes loses
// at most the unflushed tail; a crash *during* a flush leaves at most
// one partial final line, which ReadShardFile tolerates by design.
#ifndef SRC_OBS_SHARD_H_
#define SRC_OBS_SHARD_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/bus.h"
#include "src/obs/event.h"
#include "src/obs/json.h"

namespace circus::obs {

// Identity of the process a shard came from, recorded in the header.
struct ShardInfo {
  std::string node;       // display name ("member0", "ringmaster", ...)
  std::string role;       // "ringmaster" | "member" | "client" | "test"
  std::string address;    // listen address, "127.0.0.1:9001"
  uint64_t incarnation = 0;
  std::string clock = "realtime";  // "realtime" (rt) or "sim" (World)

  json::Value ToJson() const;
};

class ShardWriter {
 public:
  // Opens `path` for writing (truncating) and writes the header line
  // immediately. An empty `path` makes a ring-only writer: events are
  // retained for recent()/spans introspection but never hit disk.
  // `capacity` bounds both the recent-events ring and the unflushed
  // line buffer; overflow drops the oldest entries and counts them.
  // Packet events go to the file only: the ring serves span queries,
  // which never use them.
  ShardWriter(std::string path, ShardInfo info, size_t capacity = 8192);
  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;
  // Detaches from the bus (if attached) and flushes the tail.
  ~ShardWriter();

  // Subscribes to `bus`; only events whose host id matches
  // `host_filter` are recorded (0 records everything — the single-node
  // daemon case; tests carving one World into per-node shards pass the
  // node's host id).
  void Attach(EventBus* bus, uint32_t host_filter = 0);
  void Detach();

  // Records one event directly (the Attach subscription calls this).
  void Observe(const Event& event);

  // Appends the buffered lines to the file and fflushes. No-op for a
  // ring-only writer. kUnavailable on I/O error (buffered lines are
  // kept for a retry).
  circus::Status Flush();

  const ShardInfo& info() const { return info_; }
  const std::string& path() const { return path_; }
  // False when a file shard could not be opened or its header failed to
  // write (a ring-only writer is always ok).
  bool ok() const {
    return path_.empty() || (file_ != nullptr && !header_write_failed_);
  }
  // The most recent non-packet events, oldest first (bounded by
  // `capacity`); the introspection endpoint assembles its `spans` reply
  // from these.
  std::vector<Event> Recent() const;
  uint64_t observed() const { return observed_; }
  uint64_t dropped() const { return dropped_; }
  // Lines buffered but not yet on disk (the flush backlog).
  size_t pending() const { return pending_lines_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t flush_failures() const { return flush_failures_; }

 private:
  std::string path_;
  ShardInfo info_;
  size_t capacity_;
  std::FILE* file_ = nullptr;
  bool header_write_failed_ = false;
  EventBus* bus_ = nullptr;
  EventBus::SubscriberId subscriber_id_ = 0;
  uint32_t host_filter_ = 0;
  std::deque<Event> recent_;
  std::deque<std::string> pending_lines_;
  uint64_t observed_ = 0;
  uint64_t dropped_ = 0;
  uint64_t dropped_unreported_ = 0;  // drops since the last flushed marker
  uint64_t flushes_ = 0;
  uint64_t flush_failures_ = 0;
};

// Inverse of EventToJson. False when `line` is not an event object (a
// header, a drop marker, an unknown kind) — callers skip such lines.
bool EventFromJson(const json::Value& value, Event* out);

// One parsed shard file.
struct ShardFile {
  ShardInfo info;
  std::vector<Event> events;
  // Diagnostics: lines that did not parse as events. A partial final
  // line (crash mid-flush) sets truncated_tail instead of failing.
  size_t skipped_lines = 0;
  bool truncated_tail = false;
  uint64_t dropped = 0;  // sum of the file's {"shard_drop":N} markers

  // False when events are missing: the writer dropped some, or lines
  // were lost to a crash or did not parse.
  bool complete() const {
    return dropped == 0 && !truncated_tail && skipped_lines == 0;
  }
};

// Reads and parses a shard. Fails only when the file cannot be read or
// the header line is missing/foreign; event lines that fail to parse
// are skipped (counted), and a partial final line is tolerated.
circus::StatusOr<ShardFile> ReadShardFile(const std::string& path);

}  // namespace circus::obs

#endif  // SRC_OBS_SHARD_H_
