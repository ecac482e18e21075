// `circus merge`: joins N per-node trace shards into one Chrome
// trace_event file (open in chrome://tracing or Perfetto).
//
//   circus merge [-o merged.trace.json] shard...
//
// Shards come from `circus node` (trace_dir=) or from tests' ShardWriters.
// Events are correlated by the propagated logical thread ID; per-node
// clocks are aligned from paired-message call/return exchanges, and the
// alignment report — including the residual skew per node pair that the
// symmetric-delay model could not explain — goes to stdout. Exit codes:
// 0 merged, 2 usage/input error, 3 a shard could not be clock-aligned
// (no paired traffic links it to the rest).
#include <cstdio>
#include <string>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/merge.h"
#include "src/obs/shard.h"
#include "src/rt/cli.h"

namespace circus::rt {

int cli::Merge(int argc, char** argv) {
  std::string out_path = "merged.trace.json";
  std::vector<std::string> shard_paths;
  const Flag flags[] = {
      {"-o", &out_path, "out.trace.json",
       "merged Chrome trace (default merged.trace.json)"},
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
      std::fprintf(stderr, "circus merge: %s\n",
                   shard.status().ToString().c_str());
      return 2;
    }
    shards.push_back(*std::move(shard));
  }

  circus::StatusOr<obs::MergeResult> merged = obs::MergeShards(shards);
  if (!merged.ok()) {
    std::fprintf(stderr, "circus merge: %s\n",
                 merged.status().ToString().c_str());
    return 2;
  }

  std::fputs(obs::MergeReport(shards, *merged).c_str(), stdout);

  const std::string trace =
      obs::ToChromeTrace(merged->events, merged->host_names);
  circus::Status written = obs::WriteStringToFile(out_path, trace);
  if (!written.ok()) {
    std::fprintf(stderr, "circus merge: %s\n",
                 written.ToString().c_str());
    return 2;
  }
  std::printf("wrote %s (%zu events from %zu shards)\n", out_path.c_str(),
              merged->events.size(), shards.size());

  for (size_t k = 0; k < shards.size(); ++k) {
    if (!merged->aligned[k]) {
      std::fprintf(stderr,
                   "circus merge: shard %zu (%s) has no paired "
                   "traffic linking it to the reference clock\n",
                   k, shard_paths[k].c_str());
      return 3;
    }
  }
  return 0;
}

}  // namespace circus::rt
