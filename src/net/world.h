// World: one simulated distributed system — an executor, a set of
// fail-stop hosts, and the network connecting them. Mirrors the paper's
// testbed of six identically configured VAX-11/750s on one Ethernet
// (Section 4.4.1); tests and benches build whatever topology they need.
#ifndef SRC_NET_WORLD_H_
#define SRC_NET_WORLD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/obs/bus.h"
#include "src/obs/metrics.h"
#include "src/obs/util.h"
#include "src/sim/executor.h"
#include "src/sim/host.h"
#include "src/sim/random.h"

namespace circus::net {

class World {
 public:
  explicit World(uint64_t seed = 1,
                 sim::SyscallCostModel cost_model =
                     sim::SyscallCostModel::Berkeley42Bsd());
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  // Crashes every host and drains the executor so that all protocol
  // coroutines unwind before members are destroyed.
  ~World();

  sim::Executor& executor() { return executor_; }
  Network& network() { return network_; }
  sim::Rng& rng() { return rng_; }

  // The observability hub: one event bus + metrics registry per World,
  // stamped with this world's simulated clock. Protocol layers reach
  // them through the Network; tests and exporters subscribe here.
  obs::EventBus& bus() { return bus_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  // host id -> host name, for exporter process_name metadata.
  std::map<uint32_t, std::string> HostNames() const;

  // Creates a host with the world's cost model and the next 10.x.y.z
  // address.
  sim::Host* AddHost(const std::string& name);
  // Creates `n` hosts named <prefix>0..<prefix>n-1.
  std::vector<sim::Host*> AddHosts(const std::string& prefix, int n);

  sim::Host* host(size_t index) { return hosts_[index].get(); }
  size_t host_count() const { return hosts_.size(); }

  HostAddress AddressOf(const sim::Host* host) const {
    return network_.AddressOfHost(host->id());
  }

  // Registers this world's resources on a utilization monitor: one
  // cpu.<host> per host added so far (call after topology is built),
  // the executor run queue, and the network (packets, bytes, losses,
  // receive backlog). The caller attaches bus/metrics sinks and drives
  // monitor->Sample() between RunFor steps; everything runs on virtual
  // time, so same-seed runs report byte-identical snapshots.
  void WireUtilization(obs::UtilizationMonitor* monitor);

  // Convenience wrappers over the executor.
  void RunUntilIdle() { executor_.RunUntilIdle(); }
  void RunFor(sim::Duration d) { executor_.RunFor(d); }
  sim::TimePoint now() const { return executor_.now(); }

 private:
  sim::Rng rng_;
  // The hub is declared before the network and hosts so that protocol
  // teardown (which may still publish) never outlives it.
  obs::EventBus bus_;
  obs::MetricsRegistry metrics_;
  sim::Executor executor_;
  Network network_;
  sim::SyscallCostModel cost_model_;
  std::vector<std::unique_ptr<sim::Host>> hosts_;
  uint32_t next_host_index_ = 0;
};

}  // namespace circus::net

#endif  // SRC_NET_WORLD_H_
