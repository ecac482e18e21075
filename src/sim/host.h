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
// the first to flip `settled`.
struct WaitState {
  std::coroutine_handle<> handle;
  bool settled = false;
  bool crashed = false;
  bool timed_out = false;
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
  auto SleepFor(Duration d) {
    struct Awaiter {
      Host* host;
      Duration delay;
      std::shared_ptr<WaitState> state;
      uint64_t timer = 0;
      bool await_ready() {
        return !host->up();  // resume immediately; await_resume throws
      }
      void await_suspend(std::coroutine_handle<> h) {
        state = std::make_shared<WaitState>();
        state->handle = h;
        host->RegisterWaiter(state);
        std::shared_ptr<WaitState> s = state;
        timer = host->executor_->ScheduleAfter(delay, [s] {
          if (s->settled) {
            return;
          }
          s->settled = true;
          s->handle.resume();
        });
      }
      void await_resume() {
        if (!state) {
          throw HostCrashedError();  // host was already down
        }
        if (state->crashed) {
          // The crash won: drop the sleep's timer from the queue.
          host->executor_->Cancel(timer);
          throw HostCrashedError();
        }
      }
    };
    return Awaiter{this, d, nullptr};
  }

  // Issues a simulated system call: charges its kernel CPU cost to this
  // host and occupies the (single) CPU for that long — concurrent
  // processes on one host serialize their CPU consumption, which is what
  // makes the per-member sendmsg cost of a simulated multicast add up
  // linearly in real time (Section 4.4.1).
  Task<void> DoSyscall(Syscall s);

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

}  // namespace circus::sim

#endif  // SRC_SIM_HOST_H_
