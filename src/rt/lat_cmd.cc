// `circus lat`: stage-level latency attribution over merged trace shards.
//
//   circus lat [-k slowest] [-p] shard...
//
// Reads the per-node shards a testbed wrote (`circus node` trace_dir=),
// clock-aligns them exactly like `circus merge`, replays the merged
// event stream through the obs::LatencyAttributor, and renders:
//
//   * the per-stage breakdown table (count, p50/p90/p99/max per stage,
//     and each stage's share of total end-to-end time);
//   * the top-K slow-call report, each offending call with its full
//     cross-member span tree.
//
// With -p the Prometheus exposition is printed instead of the table
// (same text a live node serves for the `latency` query). Exit codes:
// 0 report written, 2 usage/input error.
#include <cstdio>
#include <string>
#include <vector>

#include "src/obs/latency.h"
#include "src/obs/merge.h"
#include "src/obs/shard.h"
#include "src/rt/cli.h"

namespace circus::rt {

int cli::Lat(int argc, char** argv) {
  uint64_t top_k = 5;
  bool prometheus = false;
  std::vector<std::string> shard_paths;
  const Flag flags[] = {
      {"-k", &top_k, "slowest",
       "slow calls to report with their span trees (default 5)"},
      {"-p", &prometheus, nullptr,
       "print the Prometheus exposition instead of the table"},
      {"shard", &shard_paths, nullptr,
       "trace shards (`circus node` trace_dir= output)"},
  };
  if (!ParseFlags(argc, argv, flags)) {
    return kUsageError;
  }

  std::vector<obs::ShardFile> shards;
  for (const std::string& path : shard_paths) {
    circus::StatusOr<obs::ShardFile> shard = obs::ReadShardFile(path);
    if (!shard.ok()) {
      std::fprintf(stderr, "circus lat: %s\n",
                   shard.status().ToString().c_str());
      return 2;
    }
    shards.push_back(*std::move(shard));
  }

  circus::StatusOr<obs::MergeResult> merged = obs::MergeShards(shards);
  if (!merged.ok()) {
    std::fprintf(stderr, "circus lat: %s\n",
                 merged.status().ToString().c_str());
    return 2;
  }

  obs::LatencyAttributor::Options options;
  options.max_exemplars = top_k;
  obs::LatencyAttributor attributor(options);
  for (const obs::Event& event : merged->events) {
    attributor.Observe(event);
  }

  if (attributor.calls() == 0) {
    std::fprintf(stderr,
                 "circus lat: no completed calls in %zu shard(s) "
                 "(%zu events)\n",
                 shards.size(), merged->events.size());
  }
  if (prometheus) {
    std::fputs(attributor.ToPrometheus().c_str(), stdout);
    return 0;
  }
  std::printf("%zu shard(s), %zu events\n", shards.size(),
              merged->events.size());
  std::fputs(attributor.ToString().c_str(), stdout);
  if (top_k > 0 && attributor.calls() > 0) {
    std::fputs(attributor.SlowCallReport().c_str(), stdout);
  }
  return 0;
}

}  // namespace circus::rt
