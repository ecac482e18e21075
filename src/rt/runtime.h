// Runtime: one real-time Circus node — an executor pumped by an IoLoop,
// a set of hosts with the wall-clock cost model, and a UdpFabric over
// real sockets. The rt analogue of net::World; tests and the `circus node`
// daemon build whatever topology they need. "Hosts" here are logical
// failure domains (a crash reaps that host's coroutines exactly as in
// the simulator); on a single machine they all share one kernel, which
// is the loopback-testbed configuration.
#ifndef SRC_RT_RUNTIME_H_
#define SRC_RT_RUNTIME_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/bus.h"
#include "src/obs/metrics.h"
#include "src/rt/io_loop.h"
#include "src/rt/udp_fabric.h"
#include "src/sim/executor.h"
#include "src/sim/host.h"

namespace circus::rt {

inline constexpr net::HostAddress kLoopbackAddress = 0x7F000001;  // 127.0.0.1

class Runtime {
 public:
  Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  // Crashes every host and drains the executor so that all protocol
  // coroutines unwind before members are destroyed (same teardown
  // discipline as net::World).
  ~Runtime();

  sim::Executor& executor() { return executor_; }
  IoLoop& loop() { return loop_; }
  UdpFabric& fabric() { return fabric_; }
  obs::EventBus& bus() { return bus_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  // This OS process's incarnation: a fresh nonzero value per Runtime,
  // derived from the wall clock and pid. The bus stamps it into every
  // event, so merged multi-process traces (and their consumers) can
  // tell a restarted node from its predecessor at the same address.
  uint64_t incarnation() const { return incarnation_; }

  // Creates a host bound to a real local interface (loopback by
  // default). Hosts use SyscallCostModel::WallClock(): real syscalls
  // cost real time, so no simulated CPU charges on top.
  sim::Host* AddHost(const std::string& name,
                     net::HostAddress interface_ip = kLoopbackAddress);

  sim::Host* host(size_t index) { return hosts_[index].get(); }
  size_t host_count() const { return hosts_.size(); }

  // Convenience wrappers over the loop.
  bool RunUntil(const std::function<bool()>& done,
                sim::Duration wall_timeout) {
    return loop_.RunUntil(done, wall_timeout);
  }
  void RunFor(sim::Duration wall_duration) { loop_.RunFor(wall_duration); }
  sim::TimePoint now() const { return executor_.now(); }

 private:
  // The hub is declared before the fabric and hosts so that protocol
  // teardown (which may still publish) never outlives it.
  obs::EventBus bus_;
  obs::MetricsRegistry metrics_;
  sim::Executor executor_;
  IoLoop loop_;
  UdpFabric fabric_;
  std::vector<std::unique_ptr<sim::Host>> hosts_;
  uint32_t next_host_index_ = 0;
  uint64_t incarnation_ = 0;
};

}  // namespace circus::rt

#endif  // SRC_RT_RUNTIME_H_
