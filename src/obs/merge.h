// Cross-process trace merge: joins N per-node shards (src/obs/shard.h)
// into one event stream on one timeline.
//
// Each rt node stamps events with its own CLOCK_REALTIME, so shards from
// different processes disagree by each host's clock offset. The merge
// estimates pairwise offsets from the paired-message protocol itself:
// for a call n between A and B, the four events
//
//   t1 = A kSegmentSend(peer=B, call=n)       request leaves A
//   t2 = B kMessageDelivered(peer=A, call=n)  request arrives at B
//   t3 = B kSegmentSend(peer=A, call=n)       return leaves B
//   t4 = A kMessageDelivered(peer=B, call=n)  return arrives at A
//
// form an NTP-style exchange: offset(B-A) = ((t2-t1) + (t3-t4)) / 2,
// exact when the two network legs are symmetric. The per-pair estimate
// is the median over all complete exchanges; the residual (max-min
// sample spread) bounds how asymmetric the legs were. Global alignment
// walks the pair graph breadth-first from a reference shard.
//
// Correlation across shards needs no clock at all: it rides the
// propagated Section 3.4.1 thread ID that every event carries.
#ifndef SRC_OBS_MERGE_H_
#define SRC_OBS_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/event.h"
#include "src/obs/shard.h"

namespace circus::obs {

// Clock-offset estimate between one pair of shards.
struct PairAlignment {
  size_t shard_a = 0;  // indices into the input shard vector
  size_t shard_b = 0;
  size_t samples = 0;      // complete call/return exchanges found
  int64_t offset_ns = 0;   // median estimate of clock(b) - clock(a)
  int64_t residual_ns = 0; // sample spread (max - min); 0 with <2 samples
};

struct MergeResult {
  // All events from all shards, clock-aligned to the reference shard and
  // stably sorted by time. Each event's `host` is rewritten to its shard
  // index + 1 so ToChromeTrace renders one process lane per node even
  // when the original host ids collide across processes.
  std::vector<Event> events;
  // Shard index + 1 -> "node (addr)" for process_name metadata.
  std::map<uint32_t, std::string> host_names;

  std::vector<PairAlignment> pairs;  // every pair with >= 1 sample
  std::vector<int64_t> shift_ns;     // per-shard correction applied
  std::vector<bool> aligned;         // false: unreachable from reference
  size_t reference = 0;              // shard whose clock won

  // Summed file-level diagnostics from the inputs.
  size_t skipped_lines = 0;
  size_t truncated_tails = 0;
};

// Merges `shards` (as returned by ReadShardFile, order preserved).
// The reference clock is the first shard's. Fails only on an empty
// input; shards with no pairable traffic merge unaligned (flagged).
circus::StatusOr<MergeResult> MergeShards(const std::vector<ShardFile>& shards,
                                          size_t reference = 0);

// Human-readable alignment report: one line per shard (shift, event
// count, events the writer dropped) and one per pair (samples, offset,
// residual skew).
std::string MergeReport(const std::vector<ShardFile>& shards,
                        const MergeResult& result);

}  // namespace circus::obs

#endif  // SRC_OBS_MERGE_H_
