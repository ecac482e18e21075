// The chaos harness: builds a full Circus stack — Ringmaster, binding
// agent with a Reconfigurer, a machine pool, a transactional troupe and
// an unreplicated client — runs a fault Schedule against it through a
// Nemesis, and checks the paper's invariants with an InvariantMonitor
// the whole way through.
//
// The client collates with an explicit majority collator (the
// Section 7.4 explicit-replication style of the Section 4.3.5
// quorum-unanimous rule) and acts on what the collator reveals: a member
// whose reply diverges from an accepted quorum has forked its state and
// is fail-stopped so the Reconfigurer replaces it — the
// watchdog-triggered repair of Section 4.3.4, driven from the client
// side. The maintenance sweep likewise compares members' externalized
// state directly (two consecutive strikes, so a snapshot racing an
// in-flight call is never acted on) and retires persistent minorities.
// Everything is a pure function of the World seed: one RunChaos with the
// same Schedule and options reproduces byte-identical digests.
#ifndef SRC_CHAOS_HARNESS_H_
#define SRC_CHAOS_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/schedule.h"
#include "src/obs/event.h"
#include "src/obs/metrics.h"
#include "src/sim/time.h"

namespace circus::chaos {

struct HarnessOptions {
  uint64_t seed = 1;        // World seed (executor, network, processes)
  int troupe_size = 3;      // the paper's worked example (Section 6.4.2)
  // Candidate machines beyond the initial troupe; 0 means "enough for
  // every possible crash and repair in the schedule".
  int spare_machines = 0;

  sim::Duration warmup = sim::Duration::Seconds(40);
  sim::Duration run_length = sim::Duration::Seconds(120);
  sim::Duration settle_length = sim::Duration::Seconds(90);

  sim::Duration call_period = sim::Duration::Seconds(2);
  sim::Duration sweep_period = sim::Duration::Seconds(15);

  bool with_transactions = false;
  sim::Duration txn_period = sim::Duration::Seconds(7);

  // Kill members whose state provably diverged (see header comment).
  // Off, a partition-forked member lingers and the run may legitimately
  // never re-converge; the default workload keeps it on.
  bool repair_divergence = true;

  // First-come collation instead of the majority collator: a call
  // succeeds iff any member answers, which is exactly the availability
  // semantics Equation 6.1 models (bench_chaos uses this; the tests
  // keep the stricter quorum client).
  bool first_come_calls = false;

  // Wire-level oracle: stream every packet event on the World's bus
  // through the Section 4.2 wire auditor (src/obs/wire.h); at the end of
  // the run its findings join the monitor's violations prefixed "wire: ".
  bool audit_wire = true;

  // Negative-test knobs: each plants one specific bug the monitor must
  // catch (used by chaos_test and the shrinker's self-check).
  bool broken_collator = false;         // accepts a mangled reply value
  bool nondeterministic_member = false;  // member serial 1 computes wrong
  // Members stop suppressing duplicates: the msg layer forgets
  // completed exchanges and the core layer re-answers a redelivered
  // call with a mangled return that reuses the call number — the wire
  // auditor (audit_wire) must flag the reuse when a schedule injects
  // duplicate faults.
  bool duplicate_delivery_bug = false;

  // Observability. The harness always routes its monitor and recorders
  // through the World's event bus; these knobs additionally capture the
  // full event stream. collect_events copies it into ChaosReport.events;
  // a non-empty path writes the Chrome trace_event JSON / JSONL export
  // there at the end of the run.
  bool collect_events = false;
  std::string trace_json_path;
  std::string trace_jsonl_path;
};

struct ChaosReport {
  uint64_t schedule_digest = 0;
  uint64_t trace_digest = 0;

  int calls_issued = 0;
  int calls_accepted = 0;
  int calls_failed = 0;
  int txns_ok = 0;
  int txns_failed = 0;

  int faults_applied = 0;
  int crashes_injected = 0;
  int members_launched = 0;
  int suspects_killed = 0;

  std::vector<std::string> violations;

  // The run's full event stream (only when options.collect_events) and
  // the final metrics snapshot (always).
  std::vector<obs::Event> events;
  obs::MetricsRegistry::Snapshot metrics;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

// Runs `schedule` against a fresh world built from `options`. Blocking;
// the simulation runs warmup + chaos + settle + final checks to
// completion before this returns.
ChaosReport RunChaos(const Schedule& schedule, const HarnessOptions& options);

}  // namespace circus::chaos

#endif  // SRC_CHAOS_HARNESS_H_
