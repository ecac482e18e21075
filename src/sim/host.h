// A simulated fail-stop machine (Section 3.5.1). A host runs coroutine
// "processes", owns CPU accounting, and can crash and restart. Crashing a
// host wakes every coroutine suspended on one of the host's wait
// primitives with HostCrashedError, destroying the computation exactly as
// a machine crash destroys its processes. Troupe members placed on
// distinct hosts therefore have independent failure modes, which is the
// premise of the troupe availability analysis (Section 6.4.2).
#ifndef SRC_SIM_HOST_H_
#define SRC_SIM_HOST_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/sim/crash.h"
#include "src/sim/executor.h"
#include "src/sim/syscall.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace circus::sim {

// Shared state between a suspended coroutine and whatever will wake it
// (a timer, a message arrival, or a host crash). Exactly one waker wins:
// the first to flip `settled`. The awaiter owns the state; wakers hold
// weak references, and the events they schedule hold no reference at all.
struct WaitState {
  std::coroutine_handle<> handle;
  bool settled = false;
  bool crashed = false;

  // Settles the wait and schedules the coroutine's resumption. The event
  // captures only the handle, so it fits std::function's local buffer.
  void Wake(Executor& executor) {
    settled = true;
    executor.ScheduleAfter(Duration::Zero(), [h = handle] { h.resume(); });
  }
};

// A timeout on a wait: after `delay`, settles `state` and resumes its
// coroutine unless something else settled it first. The event holds a
// raw pointer to the state, so it must not outlive it: the awaiter that
// owns the state owns this too, and destroying it cancels the event,
// whether a value or a crash won or the suspended coroutine was
// destroyed. (After the event ran, Cancel is a no-op.)
class WaitTimeout {
 public:
  WaitTimeout() = default;
  WaitTimeout(const WaitTimeout&) = delete;
  WaitTimeout& operator=(const WaitTimeout&) = delete;
  ~WaitTimeout() {
    if (event_ != 0) {
      executor_->Cancel(event_);
    }
  }

  void Arm(Executor* executor, WaitState* state, Duration delay) {
    executor_ = executor;
    event_ = executor->ScheduleAfter(delay, [state] {
      if (state->settled) {
        return;
      }
      state->settled = true;
      state->handle.resume();
    });
  }

 private:
  // Kept from Arm: the waited-on object (say, a discarded return slot)
  // may be gone by the time this is destroyed.
  Executor* executor_ = nullptr;
  uint64_t event_ = 0;  // 0 while unarmed
};

class Host {
 public:
  using HostId = uint32_t;

  Host(Executor* executor, HostId id, std::string name,
       SyscallCostModel cost_model);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;
  ~Host();

  Executor& executor() { return *executor_; }
  HostId id() const { return id_; }
  const std::string& name() const { return name_; }

  bool up() const { return up_; }
  // Incarnation increments on every Restart; a (host id, incarnation)
  // pair distinguishes the "same machine rebooted" case for binding
  // staleness (Section 6.1, case 3).
  uint32_t incarnation() const { return incarnation_; }

  // Fail-stop crash: all waiters wake with HostCrashedError, all crash
  // listeners (sockets, network attachments) fire, volatile state is gone.
  void Crash();
  // Brings the machine back up with a new incarnation. Nothing from the
  // previous incarnation survives; a replacement troupe member must fetch
  // state via get_state (Section 6.4.1).
  void Restart();

  // --- Wait primitives (all wake with HostCrashedError on crash) ---

  // Sleeps for `d` of simulated time.
  class SleepAwaiter;
  SleepAwaiter SleepFor(Duration d);

  // Issues a simulated system call: charges its kernel CPU cost to this
  // host and occupies the (single) CPU for that long — concurrent
  // processes on one host serialize their CPU consumption, which is what
  // makes the per-member sendmsg cost of a simulated multicast add up
  // linearly in real time (Section 4.4.1). A zero-cost call (the Free
  // model, and every call on the real runtime) completes without
  // suspending or allocating a coroutine frame.
  class SyscallAwaiter;
  SyscallAwaiter DoSyscall(Syscall s);

  // Charges user-mode CPU (stub code, marshaling); also occupies the CPU.
  Task<void> Compute(Duration d);

  // Charges a syscall's cost to the accounting tables without advancing
  // time. Used for calls whose latency is overlapped with a wait the
  // caller is already modelling (e.g. select before a blocking receive).
  void ChargeSyscallInstant(Syscall s);

  // --- Local clock (skew model) ---
  // The paper's ordered broadcast protocol assumes synchronized clocks;
  // the skew knob lets tests and benches quantify how much actual
  // synchronization matters (perfectly synchronized by default).
  void set_clock_skew(Duration d) { clock_skew_ = d; }
  Duration clock_skew() const { return clock_skew_; }
  // What this machine's clock reads now.
  int64_t LocalClockNanos() const {
    return (executor_->now() + clock_skew_).nanos();
  }
  // The simulated instant at which this machine's clock reads
  // `local_ns`.
  TimePoint SimTimeForLocal(int64_t local_ns) const {
    return TimePoint::FromNanos(local_ns) - clock_skew_;
  }

  const CpuStats& cpu() const { return cpu_; }
  void ResetCpuStats() { cpu_ = CpuStats{}; }
  const SyscallCostModel& cost_model() const { return cost_model_; }
  void set_cost_model(SyscallCostModel m) { cost_model_ = m; }

  // --- Crash listeners (for sockets and other attachments) ---
  using ListenerId = uint64_t;
  ListenerId AddCrashListener(std::function<void()> fn);
  void RemoveCrashListener(ListenerId id);

  // --- Waiter registry (used by Channel and other sync primitives) ---
  void RegisterWaiter(std::shared_ptr<WaitState> state);

  // Spawns a detached coroutine logically running on this host. (The
  // coroutine must only block on this host's primitives; crash then
  // reaps it.)
  void Spawn(Task<void> task) { executor_->Spawn(std::move(task)); }

 private:
  void WakeAllWithCrash();
  // Occupies the host CPU for `d`: the work starts when the CPU frees up
  // and pushes cpu_busy_until_ forward, serializing all charges.
  Task<void> OccupyCpu(Duration d);

  TimePoint cpu_busy_until_;
  Duration clock_skew_;
  Executor* executor_;
  HostId id_;
  std::string name_;
  bool up_ = true;
  uint32_t incarnation_ = 1;
  SyscallCostModel cost_model_;
  CpuStats cpu_;
  std::vector<std::weak_ptr<WaitState>> waiters_;
  std::map<ListenerId, std::function<void()>> crash_listeners_;
  ListenerId next_listener_id_ = 1;
};

class Host::SleepAwaiter {
 public:
  SleepAwaiter(Host* host, Duration delay) : host_(host), delay_(delay) {}

  bool await_ready() const {
    return !host_->up();  // resume immediately; await_resume throws
  }
  void await_suspend(std::coroutine_handle<> h) {
    state_ = std::make_shared<WaitState>();
    state_->handle = h;
    host_->RegisterWaiter(state_);
    timer_.Arm(host_->executor_, state_.get(), delay_);
  }
  void await_resume() const {
    if (state_ == nullptr || state_->crashed) {
      throw HostCrashedError();  // the host was down, or the crash won
    }
  }

 private:
  Host* host_;
  Duration delay_;
  std::shared_ptr<WaitState> state_;
  WaitTimeout timer_;  // declared after state_, so cancelled before it dies
};

class Host::SyscallAwaiter {
 public:
  SyscallAwaiter(Host* host, Syscall s) : host_(host), syscall_(s) {}

  bool await_ready() {
    host_->ChargeSyscallInstant(syscall_);
    const Duration cost = host_->cost_model_.cost(syscall_);
    if (cost > Duration::Zero()) {
      occupy_ = host_->OccupyCpu(cost);
      return false;
    }
    return true;  // await_resume still throws on a down host
  }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
    return std::move(occupy_).operator co_await().await_suspend(h);
  }
  void await_resume() {
    if (occupy_.valid()) {
      std::move(occupy_).operator co_await().await_resume();
    } else if (!host_->up()) {
      throw HostCrashedError();
    }
  }

 private:
  Host* host_;
  Syscall syscall_;
  Task<void> occupy_;  // the CPU occupation of a nonzero-cost call
};

inline Host::SleepAwaiter Host::SleepFor(Duration d) {
  return SleepAwaiter(this, d);
}

inline Host::SyscallAwaiter Host::DoSyscall(Syscall s) {
  return SyscallAwaiter(this, s);
}

}  // namespace circus::sim

#endif  // SRC_SIM_HOST_H_
