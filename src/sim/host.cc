#include "src/sim/host.h"

#include <utility>

#include "src/common/log.h"

namespace circus::sim {

Host::Host(Executor* executor, HostId id, std::string name,
           SyscallCostModel cost_model)
    : executor_(executor),
      id_(id),
      name_(std::move(name)),
      cost_model_(cost_model) {}

Host::~Host() = default;

void Host::Crash() {
  if (!up_) {
    return;
  }
  up_ = false;
  CIRCUS_LOG_AT(LogLevel::kInfo, executor_->now().nanos())
      << "host " << name_ << " crashed";
  // Listeners first (sockets detach from the network), then waiters.
  std::vector<std::function<void()>> listeners;
  listeners.reserve(crash_listeners_.size());
  for (auto& [lid, fn] : crash_listeners_) {
    listeners.push_back(fn);
  }
  crash_listeners_.clear();
  for (auto& fn : listeners) {
    fn();
  }
  WakeAllWithCrash();
}

void Host::Restart() {
  if (up_) {
    return;
  }
  up_ = true;
  ++incarnation_;
  cpu_ = CpuStats{};
  cpu_busy_until_ = executor_->now();
  CIRCUS_LOG_AT(LogLevel::kInfo, executor_->now().nanos())
      << "host " << name_ << " restarted (incarnation " << incarnation_
      << ")";
}

void Host::WakeAllWithCrash() {
  // Waking only schedules resumptions, so nothing re-enters the registry
  // while it is walked; clearing it in place keeps its capacity.
  for (const std::weak_ptr<WaitState>& weak : waiters_) {
    std::shared_ptr<WaitState> state = weak.lock();
    if (!state || state->settled) {
      continue;
    }
    state->crashed = true;
    state->Wake(*executor_);
  }
  waiters_.clear();
}

Task<void> Host::OccupyCpu(Duration d) {
  const TimePoint now = executor_->now();
  const TimePoint start = cpu_busy_until_ > now ? cpu_busy_until_ : now;
  cpu_busy_until_ = start + d;
  co_await SleepFor(cpu_busy_until_ - now);
}

Task<void> Host::Compute(Duration d) {
  cpu_.user_time += d;
  if (d > Duration::Zero()) {
    co_await OccupyCpu(d);
  } else if (!up_) {
    throw HostCrashedError();
  }
}

void Host::ChargeSyscallInstant(Syscall s) {
  const Duration cost = cost_model_.cost(s);
  cpu_.syscall_count[static_cast<int>(s)]++;
  cpu_.syscall_time[static_cast<int>(s)] += cost;
}

Host::ListenerId Host::AddCrashListener(std::function<void()> fn) {
  const ListenerId id = next_listener_id_++;
  crash_listeners_.emplace(id, std::move(fn));
  return id;
}

void Host::RemoveCrashListener(ListenerId id) { crash_listeners_.erase(id); }

void Host::RegisterWaiter(std::shared_ptr<WaitState> state) {
  if (!up_) {
    // Host already down: settle immediately as crashed.
    state->crashed = true;
    state->Wake(*executor_);
    return;
  }
  // Opportunistically compact the registry.
  if (waiters_.size() > 64 && waiters_.size() % 64 == 0) {
    std::erase_if(waiters_, [](const std::weak_ptr<WaitState>& w) {
      std::shared_ptr<WaitState> s = w.lock();
      return !s || s->settled;
    });
  }
  waiters_.push_back(state);
}

}  // namespace circus::sim
