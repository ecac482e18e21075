#include "src/sim/executor.h"

#include <utility>

#include "src/common/check.h"
#include "src/sim/crash.h"

namespace circus::sim {

uint64_t Executor::ScheduleAt(TimePoint when, std::function<void()> fn) {
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    CIRCUS_CHECK(slot != kNotQueued);
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_.emplace_back();
  Place(heap_.size() - 1, HeapEntry{when, next_seq_++, slot});
  SiftUp(heap_.size() - 1);
  return (static_cast<uint64_t>(slots_[slot].generation) << 32) | slot;
}

void Executor::Cancel(uint64_t id) {
  const uint32_t slot = static_cast<uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].generation != id >> 32 ||
      slots_[slot].heap_index == kNotQueued) {
    return;
  }
  // The callback is destroyed only after the queue is consistent again:
  // its captures' destructors may schedule or cancel events themselves.
  std::function<void()> doomed = Remove(slots_[slot].heap_index);
}

std::function<void()> Executor::Remove(size_t i) {
  Slot& s = slots_[heap_[i].slot];
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;
  s.heap_index = kNotQueued;
  if (++s.generation == 0) {
    s.generation = 1;
  }
  free_slots_.push_back(heap_[i].slot);
  // Walk the hole down along the earlier child to a leaf, then drop the
  // last entry into it and sift that up: one comparison per level on the
  // way down, where the last entry (a leaf) usually belongs near the
  // bottom anyway.
  const size_t n = heap_.size() - 1;
  const HeapEntry last = heap_[n];
  heap_.pop_back();
  if (i == n) {
    return fn;
  }
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, last);
  SiftUp(i);
  return fn;
}

void Executor::SiftUp(size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(e, heap_[parent])) {
      break;
    }
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, e);
}

bool Executor::RunOne() {
  if (heap_.empty()) {
    return false;
  }
  const TimePoint when = heap_.front().when;
  std::function<void()> fn = Remove(0);
  CIRCUS_CHECK(when >= now_);
  now_ = when;
  ++events_run_;
  fn();
  return true;
}

std::optional<TimePoint> Executor::NextEventTime() const {
  if (heap_.empty()) {
    return std::nullopt;
  }
  return heap_.front().when;
}

void Executor::RunUntilIdle() {
  while (RunOne()) {
  }
}

void Executor::RunUntil(TimePoint deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    RunOne();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

namespace {

// Fire-and-forget wrapper coroutine: owns the Task frame for the duration
// of the run and self-destroys at completion.
struct DetachedTask {
  struct promise_type {
    DetachedTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

DetachedTask RunDetached(Task<void> task, int64_t* live_counter) {
  ++*live_counter;
  try {
    co_await std::move(task);
  } catch (const HostCrashedError&) {
    // The host running this task failed; the task simply ceases to exist,
    // like a process on a crashed machine.
  }
  --*live_counter;
}

}  // namespace

void Executor::Spawn(Task<void> task) {
  RunDetached(std::move(task), &live_detached_);
}

}  // namespace circus::sim
