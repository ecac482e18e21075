// The real-time pump for the discrete-event executor. The simulator's
// entire concurrency model is "callbacks ordered by a virtual clock";
// IoLoop replays that model against the wall clock: it runs every event
// whose virtual deadline has passed, arms a timerfd for the next pending
// deadline, and sleeps in epoll(7) until either the timer fires or a
// watched file descriptor (a real UDP socket) becomes readable. The loop
// is single-threaded by construction — coroutines, channels, and hosts
// keep exactly the semantics they have under the simulator, so every
// CLAUDE.md coroutine convention carries over unchanged.
//
// Virtual-to-wall mapping: at construction the executor's clock is
// advanced to the CLOCK_REALTIME epoch (nanoseconds since 1970), so the
// clock-seeded identifiers in the protocol layers (message call numbers,
// thread IDs) are unique across daemon restarts, exactly as a rebooted
// simulated host never reuses its predecessor's identifiers. From then
// on the loop paces the executor with CLOCK_MONOTONIC so NTP steps
// cannot run time backwards.
#ifndef SRC_RT_IO_LOOP_H_
#define SRC_RT_IO_LOOP_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/obs/bus.h"
#include "src/obs/metrics.h"
#include "src/sim/executor.h"
#include "src/sim/time.h"

namespace circus::rt {

// Cumulative loop accounting for the utilization telemetry: wall time
// split into work (running due events + fd callbacks) and idle (blocked
// in epoll_wait). busy / (busy + idle) is the loop's utilization.
struct IoLoopStats {
  uint64_t wakeups = 0;      // epoll returns
  uint64_t fd_events = 0;    // readable fds handed to callbacks
  uint64_t timer_fires = 0;  // wakeups where the armed timerfd expired
  uint64_t timer_arms = 0;   // timerfd_settime calls
  int64_t busy_ns = 0;       // outside epoll_wait
  int64_t idle_ns = 0;       // inside epoll_wait
};

class IoLoop {
 public:
  explicit IoLoop(sim::Executor* executor);
  IoLoop(const IoLoop&) = delete;
  IoLoop& operator=(const IoLoop&) = delete;
  ~IoLoop();

  sim::Executor& executor() { return *executor_; }

  // Registers a nonblocking fd; `on_readable` runs from the loop when it
  // becomes readable. The callback typically drains the fd and feeds a
  // sim::Channel, whose Send schedules the consumer coroutine's wakeup
  // on the executor — the loop then resumes it like any due event.
  void WatchFd(int fd, std::function<void()> on_readable);
  void UnwatchFd(int fd);

  // What the executor's clock should read right now (wall-paced).
  sim::TimePoint WallNow() const;

  // Pumps events until `done()` returns true (checked after each batch
  // of due events) or `wall_timeout` of real time elapses. Returns the
  // final done() value; an empty `done` just runs out the timeout.
  bool RunUntil(const std::function<bool()>& done,
                sim::Duration wall_timeout);
  void RunFor(sim::Duration wall_duration) { RunUntil({}, wall_duration); }

  // Makes the innermost RunUntil return after the current batch. Safe
  // only from within the loop (callbacks / executor events) — the loop
  // is single-threaded and there is no cross-thread wakeup.
  void Stop() { stop_ = true; }

  // Wires the loop to the runtime's observability hub. Each epoll
  // wakeup bumps rt.loop.wakeups / rt.loop.fd_events and, when the
  // timerfd fired, records the timer's slack (how late the loop woke
  // relative to the armed deadline) in rt.loop.timer_slack_us; with an
  // active bus each wakeup also publishes a kLoopWakeup event.
  void SetObservability(obs::EventBus* bus, obs::MetricsRegistry* metrics);

  const IoLoopStats& stats() const { return stats_; }

 private:
  void ArmTimer(sim::TimePoint wake);
  static int64_t MonotonicNanos();

  sim::Executor* executor_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  // Anchor of the virtual<->wall mapping.
  sim::TimePoint sim_origin_;
  int64_t mono_origin_ns_ = 0;
  std::unordered_map<int, std::function<void()>> fd_callbacks_;
  bool stop_ = false;
  obs::EventBus* bus_ = nullptr;
  obs::Counter* wakeups_ = nullptr;
  obs::Counter* fd_events_ = nullptr;
  obs::Histogram* timer_slack_us_ = nullptr;
  obs::Histogram* iter_us_ = nullptr;  // per-iteration work-phase time
  // Deadline behind the armed timerfd; meaningful while timer_armed_.
  // The timerfd is re-armed only for an earlier deadline or after it
  // fired: a deadline that moved later (its event was cancelled) costs at
  // most one spurious wakeup, which then re-arms.
  sim::TimePoint armed_wake_;
  bool timer_armed_ = false;
  IoLoopStats stats_;
};

}  // namespace circus::rt

#endif  // SRC_RT_IO_LOOP_H_
