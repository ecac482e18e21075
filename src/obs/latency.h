// Stage-level latency attribution: decomposes every replicated call seen
// on an EventBus into a timeline of named stages and aggregates each
// stage into a power-of-two histogram, so "where does a call spend its
// time" has a measured answer instead of a guess.
//
// The stage boundaries telescope — each stage ends exactly where the
// next begins — so by construction the sum of a call's stage durations
// equals its end-to-end latency (the conservation invariant
// tests/obs_latency_test.cc asserts):
//
//   client_marshal   kCallIssue   -> kCallFanout    stub + argument marshal
//   request_flight   kCallFanout  -> kCallAdmit*    network + msg layer
//   server_queue     kCallAdmit*  -> kExecuteBegin* collation wait + sched
//   server_execute   kExecuteBegin* -> kExecuteEnd* handler execution
//   reply_collate    kExecuteEnd* -> kCallCollate   reply flight + collation
//
// where * is the server leg the collator actually waited for: among the
// member executions finishing no later than the collate, the one that
// finished last. When no server-side events are visible (a live rt node
// only sees its own process's bus) the middle three stages lump into
//   server_roundtrip kCallFanout  -> kCallCollate
// and conservation still holds: marshal + roundtrip = end-to-end.
//
// Outside the conservation sum, the attributor also tracks commit vote
// wait (first kTxnVote -> kTxnDecision), ordered-broadcast wait (first
// kBroadcastPropose -> first kBroadcastDeliver), and per-call segment
// retransmit counts (joined to calls through the paired-message call
// number kCallFanout carries).
//
// Exemplars: the K slowest finalized calls are kept with their buffered
// event streams, so a report can show the full cross-member span tree
// (obs::AssembleSpans) of exactly the calls worth staring at. A slow-call
// threshold additionally queues every offending call for the rt runtime
// to drain into its trace shard (TakeSlowCalls).
//
// Everything is single-threaded, deterministic per seed, and usable both
// live (Attach to a bus) and offline (Observe over merged shard events).
#ifndef SRC_OBS_LATENCY_H_
#define SRC_OBS_LATENCY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/bus.h"
#include "src/obs/event.h"
#include "src/obs/metrics.h"

namespace circus::obs {

// Stages of one replicated call. The first five telescope into the
// conservation sum; kServerRoundtrip replaces the middle three when no
// server-side events were visible for the call.
enum class Stage : uint8_t {
  kClientMarshal = 0,
  kRequestFlight,
  kServerQueue,
  kServerExecute,
  kReplyCollate,
  kServerRoundtrip,
};
inline constexpr int kStageCount = 6;

// Stable lower_snake stage name ("client_marshal", ...).
const char* StageName(Stage stage);

// One finalized call's stage boundaries. Times are bus timestamps (ns);
// -1 marks a boundary that was never observed.
struct CallTimeline {
  ThreadRef thread;
  uint32_t seq = 0;
  uint64_t module = 0;
  uint64_t procedure = 0;
  uint64_t client_origin = 0;  // packed address of the issuing process
  int64_t issue_ns = -1;
  int64_t fanout_ns = -1;
  int64_t admit_ns = -1;    // chosen server leg; -1 = no server visible
  int64_t begin_ns = -1;
  int64_t end_ns = -1;
  int64_t collate_ns = -1;
  uint32_t retransmits = 0;
  bool ok = true;

  bool has_server_leg() const { return end_ns >= 0; }
  int64_t end_to_end_ns() const { return collate_ns - issue_ns; }
  // Duration of `stage`, or -1 when the stage does not apply to this
  // call (roundtrip vs. decomposed middle stages are mutually exclusive).
  int64_t StageNs(Stage stage) const;
  // One-line rendering: procedure, end-to-end, every applicable stage.
  std::string ToString() const;
};

// A kept slow/slowest call: its timeline plus the raw events buffered
// while it was pending, ready for AssembleSpans.
struct CallExemplar {
  CallTimeline timeline;
  std::vector<Event> events;
};

class LatencyAttributor {
 public:
  struct Options {
    // How many slowest-call exemplars to keep (by end-to-end latency).
    size_t max_exemplars = 8;
    // Calls at or above this end-to-end latency are queued for
    // TakeSlowCalls(); 0 disables the queue.
    int64_t slow_call_threshold_ns = 0;
    // Bounds on in-flight state: oldest pending calls are evicted (and
    // counted in dropped_pending()) past these.
    size_t max_pending = 4096;
    size_t max_events_per_call = 96;
    size_t max_slow_queue = 64;
  };

  LatencyAttributor() : LatencyAttributor(Options{}) {}
  explicit LatencyAttributor(Options options);
  LatencyAttributor(const LatencyAttributor&) = delete;
  LatencyAttributor& operator=(const LatencyAttributor&) = delete;
  ~LatencyAttributor();

  // Subscribes to `bus` (detached in the destructor). Alternatively feed
  // events directly with Observe — e.g. a merged shard stream.
  void Attach(EventBus* bus);
  // Unsubscribes early; required before the bus is destroyed when the
  // attributor outlives it (e.g. a bench keeping stats past its World).
  void Detach();
  void Observe(const Event& event);

  // Finalized calls (a sibling client member's duplicate issue of the
  // same logical call is counted, not separately attributed).
  uint64_t calls() const { return calls_; }
  uint64_t sibling_calls() const { return sibling_calls_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t dropped_pending() const { return dropped_pending_; }

  const Histogram& end_to_end_us() const { return end_to_end_us_; }
  const Histogram& StageHistogramUs(Stage stage) const;
  // Auxiliary waits outside the conservation sum.
  const Histogram& commit_wait_us() const { return commit_wait_us_; }
  const Histogram& broadcast_wait_us() const { return broadcast_wait_us_; }

  // The K slowest finalized calls, slowest first. Deterministic: ties
  // break toward the earlier-issued call.
  const std::vector<CallExemplar>& slowest() const { return slowest_; }

  // Drains calls that crossed the slow-call threshold since the last
  // drain (issue order). Empty when no threshold is set.
  std::vector<CallExemplar> TakeSlowCalls();

  // Per-stage breakdown table plus auxiliary waits — deterministic per
  // seed, byte-stable across same-seed runs.
  std::string ToString() const;
  // Prometheus text exposition: per-stage summaries
  // (circus_latency_stage_us{stage="..."}), end-to-end summary, and
  // counters. Appended to the node `metrics`/`latency` responses.
  std::string ToPrometheus() const;
  // Top-K slow-call report with full span trees (for `circus lat`).
  std::string SlowCallReport() const;

 private:
  struct Key {
    ThreadRef thread;
    uint32_t seq = 0;
    auto operator<=>(const Key&) const = default;
  };
  struct ServerLeg {
    int64_t admit_ns = -1;
    int64_t begin_ns = -1;
    int64_t end_ns = -1;
  };
  struct Pending {
    uint64_t client_origin = 0;
    uint64_t module = 0;
    uint64_t procedure = 0;
    int64_t issue_ns = -1;
    int64_t fanout_ns = -1;
    uint32_t retransmits = 0;
    uint64_t order = 0;  // insertion order, for deterministic eviction
    std::map<uint64_t, ServerLeg> legs;           // server origin -> leg
    std::vector<std::pair<uint64_t, uint64_t>> msg_keys;  // for unindexing
    std::vector<Event> events;
    bool events_truncated = false;
  };

  void Buffer(Pending* pending, const Event& event);
  void Finalize(const Key& key, Pending pending, const Event& collate);
  void EvictOldestPending();
  void ErasePending(const Key& key, Pending* pending);

  Options options_;
  EventBus* bus_ = nullptr;
  EventBus::SubscriberId subscriber_id_ = 0;

  std::map<Key, Pending> pending_;
  std::map<uint64_t, Key> pending_order_;  // order -> key
  // (client origin, paired-message call number) -> pending call, the
  // join that charges segment retransmits to calls.
  std::map<std::pair<uint64_t, uint64_t>, Key> msg_index_;
  uint64_t next_order_ = 0;

  uint64_t calls_ = 0;
  uint64_t sibling_calls_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t dropped_pending_ = 0;

  Histogram end_to_end_us_;
  Histogram stage_us_[kStageCount];
  Histogram commit_wait_us_;
  Histogram broadcast_wait_us_;
  std::map<uint64_t, int64_t> txn_first_vote_ns_;        // txn -> time
  std::map<uint64_t, int64_t> broadcast_propose_ns_;     // msg id -> time

  std::vector<CallExemplar> slowest_;
  std::vector<CallExemplar> slow_queue_;
};

}  // namespace circus::obs

#endif  // SRC_OBS_LATENCY_H_
