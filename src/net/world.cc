#include "src/net/world.h"

namespace circus::net {

World::World(uint64_t seed, sim::SyscallCostModel cost_model)
    : rng_(seed),
      network_(&executor_, rng_.Fork()),
      cost_model_(cost_model) {
  bus_.SetClock([this] { return executor_.now().nanos(); });
  metrics_.SetClock([this] { return executor_.now().nanos(); });
  network_.set_event_bus(&bus_);
  network_.set_metrics(&metrics_);
}

World::~World() {
  // Tear down in fail-stop style: crash everything so that coroutines
  // suspended on host primitives unwind and free their frames.
  for (auto& host : hosts_) {
    host->Crash();
  }
  executor_.RunUntilIdle();
}

sim::Host* World::AddHost(const std::string& name) {
  const uint32_t index = next_host_index_++;
  auto host = std::make_unique<sim::Host>(&executor_, index + 1, name,
                                          cost_model_);
  network_.AttachHost(host.get(), MakeHostAddress(index));
  hosts_.push_back(std::move(host));
  return hosts_.back().get();
}

void World::WireUtilization(obs::UtilizationMonitor* monitor) {
  for (auto& host_ptr : hosts_) {
    sim::Host* host = host_ptr.get();
    monitor->AddResource(
        "cpu." + host->name(),
        [host, prev = host->cpu()](int64_t window_ns) mutable {
          obs::ResourceSample sample;
          const sim::CpuStats delta = host->cpu() - prev;
          prev = host->cpu();
          if (window_ns > 0) {
            sample.utilization =
                static_cast<double>(delta.total_time().nanos()) /
                static_cast<double>(window_ns);
          }
          for (uint64_t n : delta.syscall_count) {
            sample.ops += n;
          }
          return sample;
        });
  }
  monitor->AddResource(
      "sim.executor",
      [this, prev = executor_.events_run()](int64_t) mutable {
        obs::ResourceSample sample;
        sample.queue = static_cast<double>(executor_.pending_events());
        sample.ops = executor_.events_run() - prev;
        prev = executor_.events_run();
        return sample;
      },
      // No busy share in virtual time; grade the run queue instead — a
      // queue hundreds deep means callbacks outrun the clock.
      obs::ResourceGrading{.high_queue = 256, .saturated_queue = 1024});
  monitor->AddResource(
      "net.sim",
      [this, prev = network_.stats()](int64_t) mutable {
        obs::ResourceSample sample;
        const NetworkStats& now = network_.stats();
        sample.ops = (now.packets_sent - prev.packets_sent) +
                     (now.packets_delivered - prev.packets_delivered);
        sample.bytes = now.bytes_sent - prev.bytes_sent;
        sample.errors = (now.packets_lost - prev.packets_lost) +
                        (now.packets_blocked_by_partition -
                         prev.packets_blocked_by_partition);
        sample.queue =
            static_cast<double>(network_.TotalReceiveBacklog());
        prev = now;
        return sample;
      },
      obs::ResourceGrading{.high_queue = 64, .saturated_queue = 256});
}

std::map<uint32_t, std::string> World::HostNames() const {
  std::map<uint32_t, std::string> names;
  for (const auto& host : hosts_) {
    names[static_cast<uint32_t>(host->id())] = host->name();
  }
  return names;
}

std::vector<sim::Host*> World::AddHosts(const std::string& prefix, int n) {
  std::vector<sim::Host*> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(AddHost(prefix + std::to_string(i)));
  }
  return out;
}

}  // namespace circus::net
