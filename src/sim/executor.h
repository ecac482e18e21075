// The discrete-event executor: a virtual clock plus a time-ordered queue
// of callbacks. All coroutine resumptions are scheduled through it, so the
// entire simulation executes as a flat, deterministic event loop.
#ifndef SRC_SIM_EXECUTOR_H_
#define SRC_SIM_EXECUTOR_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/sim/task.h"
#include "src/sim/time.h"

namespace circus::sim {

class Executor {
 public:
  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `fn` to run at simulated time `when` (clamped to now()).
  // Events at equal times run in scheduling order. Returns a nonzero id
  // usable with Cancel().
  uint64_t ScheduleAt(TimePoint when, std::function<void()> fn);
  uint64_t ScheduleAfter(Duration delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Removes a scheduled event from the queue and destroys its callback;
  // a no-op if it already ran or was cancelled, even when its slot has
  // since been reused (ids carry the slot's generation).
  void Cancel(uint64_t id);

  // Runs the earliest pending event; returns false if none remain.
  bool RunOne();
  // Runs until the queue is empty.
  void RunUntilIdle();
  // Runs events with time <= deadline; the clock finishes at `deadline`
  // even if the queue drains earlier.
  void RunUntil(TimePoint deadline);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Events still queued; cancelled ones have already left the queue.
  size_t pending_events() const { return heap_.size(); }

  // Total events dispatched by RunOne — with pending_events(), the
  // run-queue side of the utilization telemetry (src/obs/util.h).
  uint64_t events_run() const { return events_run_; }

  // Time of the earliest pending event, or nullopt when the queue is
  // empty. Used by the real-time runtime to arm its timer: the wall-clock
  // IoLoop sleeps exactly until the next virtual deadline.
  std::optional<TimePoint> NextEventTime() const;

  // Starts a detached coroutine. The coroutine begins running immediately
  // (until its first suspension). A HostCrashedError escaping the task is
  // swallowed: it means the host running the task failed, which is an
  // expected event in a fault-tolerance simulator. Any other exception
  // escaping a detached task aborts the process (programmer error).
  void Spawn(Task<void> task);

  // Number of detached tasks spawned and still running; useful for
  // detecting tests that leave orphaned protocol loops behind.
  int64_t live_detached_tasks() const { return live_detached_; }

  // Awaitable god-level sleep (not tied to any host; never "crashes").
  // Protocol code must use Host::SleepFor instead so that crashes wake it.
  auto SleepFor(Duration d) {
    struct Awaiter {
      Executor* executor;
      Duration delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        executor->ScheduleAfter(delay, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

 private:
  friend struct DetachedRunner;

  // The queue is a binary min-heap over (when, seq) whose entries name
  // a slot; each slot holds its event's callback and its heap position,
  // so Cancel can remove an event in O(log n) instead of leaving a
  // tombstone. An id is (generation << 32 | slot); a slot's generation
  // bumps each time it is freed, so a stale id never matches its reuse.
  static constexpr uint32_t kNotQueued = UINT32_MAX;
  struct HeapEntry {
    TimePoint when;
    uint64_t seq;
    uint32_t slot;
  };
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 1;  // never 0, so no id is 0
    uint32_t heap_index = kNotQueued;
  };

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }
  // Places `e` at heap index `i` and records the position in its slot.
  void Place(size_t i, const HeapEntry& e) {
    heap_[i] = e;
    slots_[e.slot].heap_index = static_cast<uint32_t>(i);
  }
  void SiftUp(size_t i);
  // Takes the entry at heap index `i` out of the heap and frees its slot,
  // returning the callback.
  std::function<void()> Remove(size_t i);

  TimePoint now_;
  uint64_t next_seq_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  int64_t live_detached_ = 0;
  uint64_t events_run_ = 0;
};

}  // namespace circus::sim

#endif  // SRC_SIM_EXECUTOR_H_
