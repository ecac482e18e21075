// Live node observability: the trace shard and the one-datagram text
// introspection endpoint of a `circus node` (DESIGN.md Section 6).
//
// NodeObservability bundles what every rt node needs to be observable:
//
//  * a ShardWriter subscribed to the runtime's bus — a bounded ring of
//    recent events always, plus a JSONL trace shard on disk when the
//    config sets trace_dir= (flushed periodically and at shutdown). The
//    shard also holds every datagram this process sends or receives
//    (packet events), so it doubles as the node's wire capture, decoded
//    and audited by `circus wire`;
//  * a UDP stats socket (stats_port=) answering single-datagram text
//    queries with single-datagram text replies:
//        metrics  -> Prometheus exposition of the MetricsRegistry
//        health   -> role, troupe ID, and per-peer liveness judged by
//                    the paired-endpoint probe budget
//        spans    -> recent root-thread span trees from the ring
//        latency  -> per-stage call-latency percentiles from the
//                    node's LatencyAttributor, Prometheus text
//        util     -> per-resource utilization/saturation readings from
//                    the node's UtilizationMonitor (USE method: loop
//                    busy share, process CPU, socket backlog,
//                    allocation rates), Prometheus text
//    Replies are truncated to one datagram (kMaxQueryReplyBytes) so the
//    endpoint can be driven with nothing more than netcat. Replies too
//    large for one datagram are readable in full through the paged
//    forms `<query> <offset>` (any query above except health): the
//    reply's first
//    line is `chunk <offset> <next>` (next = "end" on the last chunk)
//    and the rest is the bytes of the full text starting at <offset> —
//    re-query with <next> until "end" and concatenate.
//
// The serve loop runs as a coroutine on the node's host, so a host
// crash reaps it exactly like any protocol task.
#ifndef SRC_RT_INTROSPECT_H_
#define SRC_RT_INTROSPECT_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/core/process.h"
#include "src/net/fault_fabric.h"
#include "src/net/socket.h"
#include "src/obs/latency.h"
#include "src/obs/shard.h"
#include "src/obs/util.h"
#include "src/rt/node_config.h"
#include "src/rt/runtime.h"

namespace circus::rt {

// The shard path a node derives from its config; empty when tracing is
// off. Exposed so tools (and check scripts) agree on the layout:
// <trace_dir>/<display name>.trace.jsonl
std::string ShardPathFor(const NodeConfig& config);
// Companion path for the final metrics snapshot:
// <trace_dir>/<display name>.metrics.prom
std::string MetricsPathFor(const NodeConfig& config);

class NodeObservability {
 public:
  // Starts observing `runtime`'s bus and, when config.stats_port is
  // set, serving the introspection endpoint from `host`. Construction
  // never fails hard: a shard that cannot be opened or a stats port
  // that cannot be bound degrade to a warning via status().
  NodeObservability(Runtime* runtime, sim::Host* host,
                    const NodeConfig& config);
  NodeObservability(const NodeObservability&) = delete;
  NodeObservability& operator=(const NodeObservability&) = delete;
  ~NodeObservability();

  // kOk, or the first degradation hit during construction.
  const circus::Status& status() const { return status_; }

  // The stats-endpoint bind result, separately from status(): kOk when
  // stats_port is 0 or the bind succeeded. `circus node` fails fast on
  // this (a conflicting stats_port is an operator error, not a
  // degradation to limp through).
  const circus::Status& stats_status() const { return stats_status_; }

  // Wires the process whose troupe/peer state the health query reports.
  void SetProcess(core::RpcProcess* process) { process_ = process; }

  // Wires the node's fault fabric (may be null) so health can tell a
  // partitioned peer from a dead one.
  void SetFaultFabric(const net::FaultFabric* fabric) {
    fault_fabric_ = fabric;
  }

  obs::ShardWriter& shard() { return *shard_; }
  // The node's USE-method utilization monitor (always attached; the
  // `util` query, the health `load` grade, and `circus top` read it).
  obs::UtilizationMonitor& util() { return monitor_; }

  // Samples every utilization probe at the runtime's current time. The
  // periodic flush task drives this every 250 ms; exposed so tests and
  // shutdown paths can force a fresh reading.
  void SampleUtilization();
  // The node's stage-level latency attributor (always attached; the
  // `latency` query and the slow-call dump read from it).
  obs::LatencyAttributor& latency() { return *attributor_; }

  // Appends buffered trace lines to disk. The node calls this
  // periodically (cheap when nothing is pending) and from FinalFlush.
  void FlushShard();

  // Shutdown path: flushes the shard and writes a final Prometheus
  // snapshot to MetricsPathFor(config) (stderr when trace_dir is
  // unset, so the snapshot is never silently lost).
  void FinalFlush();

  // Query dispatch, exposed for tests: exactly what a datagram
  // containing `query` gets back (already truncated to one datagram).
  std::string HandleQuery(std::string_view query);

 private:
  std::string MetricsText() const;
  std::string HealthText() const;
  std::string SpansText() const;
  std::string LatencyText() const;
  std::string UtilText() const;
  void WireUtilizationProbes();
  // Drains calls that crossed slow_call_us into the trace shard as
  // kSlowCall events (one per offending call, span tree in detail).
  void DumpSlowCalls();

  Runtime* runtime_;
  NodeConfig config_;
  core::RpcProcess* process_ = nullptr;
  const net::FaultFabric* fault_fabric_ = nullptr;
  std::unique_ptr<obs::LatencyAttributor> attributor_;
  obs::UtilizationMonitor monitor_;
  std::unique_ptr<obs::ShardWriter> shard_;
  std::unique_ptr<net::DatagramSocket> stats_socket_;
  circus::Status status_;
  circus::Status stats_status_;
};

}  // namespace circus::rt

#endif  // SRC_RT_INTROSPECT_H_
