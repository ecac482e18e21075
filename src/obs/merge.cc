#include "src/obs/merge.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <utility>

namespace circus::obs {

namespace {

// (peer packed address, call number) -> earliest event time. Earliest
// wins so retransmitted or multi-segment messages contribute their
// first transmission / first delivery.
using ExchangeIndex = std::map<std::pair<uint64_t, uint64_t>, int64_t>;

struct ShardIndex {
  ExchangeIndex sends;      // kSegmentSend
  ExchangeIndex delivered;  // kMessageDelivered
  uint64_t local = 0;       // this shard's packed endpoint address
};

void IndexEarliest(ExchangeIndex& index, uint64_t peer, uint64_t call,
                   int64_t t_ns) {
  auto [it, inserted] = index.emplace(std::make_pair(peer, call), t_ns);
  if (!inserted && t_ns < it->second) {
    it->second = t_ns;
  }
}

ShardIndex BuildIndex(const ShardFile& shard) {
  ShardIndex index;
  std::map<uint64_t, size_t> origin_votes;
  for (const Event& e : shard.events) {
    if (e.kind == EventKind::kSegmentSend) {
      IndexEarliest(index.sends, e.a, e.b, e.time_ns);
    } else if (e.kind == EventKind::kMessageDelivered) {
      IndexEarliest(index.delivered, e.a, e.b, e.time_ns);
    } else {
      continue;
    }
    if (e.origin != 0) {
      ++origin_votes[e.origin];
    }
  }
  // The shard's own endpoint address: what its paired-message events
  // call `origin`. Majority vote tolerates a stray foreign line.
  size_t best = 0;
  for (const auto& [origin, votes] : origin_votes) {
    if (votes > best) {
      best = votes;
      index.local = origin;
    }
  }
  return index;
}

// All offset(b - a) samples derivable from complete exchanges between
// the two shards, either direction.
std::vector<int64_t> OffsetSamples(const ShardIndex& a,
                                   const ShardIndex& b) {
  std::vector<int64_t> samples;
  if (a.local == 0 || b.local == 0) {
    return samples;
  }
  for (const auto& [key, t1] : a.sends) {
    const auto& [peer, call] = key;
    if (peer != b.local) {
      continue;
    }
    // Candidate exchange on call number `call`. Whichever side
    // initiated it, all four timestamps exist under the same key pair.
    const auto t2_it = b.delivered.find({a.local, call});
    const auto t3_it = b.sends.find({a.local, call});
    const auto t4_it = a.delivered.find({b.local, call});
    if (t2_it == b.delivered.end() || t3_it == b.sends.end() ||
        t4_it == a.delivered.end()) {
      continue;
    }
    const int64_t t2 = t2_it->second;
    const int64_t t3 = t3_it->second;
    const int64_t t4 = t4_it->second;
    // The estimate is symmetric in who initiated: labelling the b-side
    // timestamps (t2, t3) and the a-side (t1, t4), the b-initiated
    // algebra -((t4 - t3) + (t1 - t2)) / 2 reduces to the same
    // expression. Ordering is checked only to reject a quadruple whose
    // clock stepped mid-call; ties are legitimate (the IoLoop stamps a
    // whole wakeup batch with one wall reading, so a fast handler
    // delivers and replies at the same nanosecond).
    if ((t1 <= t4 && t2 <= t3) || (t4 <= t1 && t3 <= t2)) {
      samples.push_back(((t2 - t1) + (t3 - t4)) / 2);
    }
  }
  return samples;
}

}  // namespace

circus::StatusOr<MergeResult> MergeShards(const std::vector<ShardFile>& shards,
                                          size_t reference) {
  if (shards.empty()) {
    return circus::Status(circus::ErrorCode::kInvalidArgument,
                          "no shards to merge");
  }
  if (reference >= shards.size()) {
    return circus::Status(circus::ErrorCode::kInvalidArgument,
                          "reference shard out of range");
  }

  MergeResult result;
  result.reference = reference;

  std::vector<ShardIndex> indexes;
  indexes.reserve(shards.size());
  for (const ShardFile& shard : shards) {
    indexes.push_back(BuildIndex(shard));
    result.skipped_lines += shard.skipped_lines;
    if (shard.truncated_tail) {
      ++result.truncated_tails;
    }
  }

  // Pairwise offsets: median sample per pair, spread as the residual.
  // adjacency[a][b] = offset(b - a).
  std::map<size_t, std::map<size_t, int64_t>> adjacency;
  for (size_t a = 0; a < shards.size(); ++a) {
    for (size_t b = a + 1; b < shards.size(); ++b) {
      std::vector<int64_t> samples = OffsetSamples(indexes[a], indexes[b]);
      if (samples.empty()) {
        continue;
      }
      std::sort(samples.begin(), samples.end());
      PairAlignment pair;
      pair.shard_a = a;
      pair.shard_b = b;
      pair.samples = samples.size();
      pair.offset_ns = samples[samples.size() / 2];
      pair.residual_ns = samples.back() - samples.front();
      result.pairs.push_back(pair);
      adjacency[a][b] = pair.offset_ns;
      adjacency[b][a] = -pair.offset_ns;
    }
  }

  // Breadth-first from the reference: shift[k] maps shard k's clock
  // into the reference clock. Crossing edge a->b (offset(b - a)) from
  // an aligned a means t_ref = t_b - offset(b - a) + shift[a].
  result.shift_ns.assign(shards.size(), 0);
  result.aligned.assign(shards.size(), false);
  result.aligned[reference] = true;
  std::deque<size_t> frontier{reference};
  while (!frontier.empty()) {
    const size_t at = frontier.front();
    frontier.pop_front();
    for (const auto& [next, offset] : adjacency[at]) {
      if (result.aligned[next]) {
        continue;
      }
      result.aligned[next] = true;
      result.shift_ns[next] = result.shift_ns[at] - offset;
      frontier.push_back(next);
    }
  }

  for (size_t k = 0; k < shards.size(); ++k) {
    const ShardInfo& info = shards[k].info;
    std::string name = info.node.empty() ? "shard" + std::to_string(k)
                                         : info.node;
    if (!info.address.empty()) {
      name += " (" + info.address + ")";
    }
    result.host_names[static_cast<uint32_t>(k) + 1] = std::move(name);
    for (Event e : shards[k].events) {
      e.host = static_cast<uint32_t>(k) + 1;
      e.time_ns += result.shift_ns[k];
      if (e.incarnation == 0) {
        e.incarnation = info.incarnation;
      }
      result.events.push_back(std::move(e));
    }
  }
  std::stable_sort(result.events.begin(), result.events.end(),
                   [](const Event& x, const Event& y) {
                     return x.time_ns < y.time_ns;
                   });
  return result;
}

std::string MergeReport(const std::vector<ShardFile>& shards,
                        const MergeResult& result) {
  std::string out;
  char line[256];
  for (size_t k = 0; k < shards.size(); ++k) {
    const ShardInfo& info = shards[k].info;
    std::snprintf(
        line, sizeof(line),
        "shard %zu: %s %s inc=%" PRIu64 " events=%zu dropped=%" PRIu64
        " shift=%+" PRId64 "ns%s%s\n",
        k, info.node.empty() ? "?" : info.node.c_str(),
        info.address.empty() ? "?" : info.address.c_str(), info.incarnation,
        shards[k].events.size(), shards[k].dropped, result.shift_ns[k],
        k == result.reference ? " (reference)"
        : result.aligned[k]   ? ""
                              : " (UNALIGNED: no paired traffic)",
        shards[k].truncated_tail ? " [truncated tail]" : "");
    out += line;
  }
  for (const PairAlignment& pair : result.pairs) {
    std::snprintf(line, sizeof(line),
                  "pair %zu<->%zu: samples=%zu offset=%+" PRId64
                  "ns residual=%" PRId64 "ns\n",
                  pair.shard_a, pair.shard_b, pair.samples, pair.offset_ns,
                  pair.residual_ns);
    out += line;
  }
  if (result.skipped_lines != 0) {
    std::snprintf(line, sizeof(line), "skipped lines: %zu\n",
                  result.skipped_lines);
    out += line;
  }
  return out;
}

}  // namespace circus::obs
