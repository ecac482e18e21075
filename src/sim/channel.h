// An unbounded, crash-aware FIFO channel. Channels model the message
// queues of simulated processes: socket receive queues, server work
// queues, and the per-call reply streams that collators consume
// (Section 7.4's generator of messages from a troupe is a thin layer over
// one of these). A Receive suspends the calling coroutine; it wakes on the
// next Send, on an optional timeout, or — like everything on a fail-stop
// machine — with HostCrashedError when the owning host crashes.
#ifndef SRC_SIM_CHANNEL_H_
#define SRC_SIM_CHANNEL_H_

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/sim/crash.h"
#include "src/sim/host.h"

namespace circus::sim {

template <typename T>
class Channel {
 public:
  // `host` may be null for god-level channels used by test drivers; those
  // never crash-wake.
  explicit Channel(Host* host) : host_(host) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  Host* host() const { return host_; }
  size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

  // Enqueues a value, waking one waiting receiver (FIFO). Never blocks.
  void Send(T value) {
    // Hand the value directly to the oldest live waiter, if any.
    while (!receivers_.empty()) {
      Receiver r = std::move(receivers_.front());
      receivers_.pop_front();
      std::shared_ptr<WaitState> state = r.state.lock();
      if (!state || state->settled) {
        continue;
      }
      state->settled = true;
      *r.slot = std::move(value);
      Executor* ex = executor();
      ex->ScheduleAfter(Duration::Zero(), [state] { state->handle.resume(); });
      return;
    }
    queue_.push_back(std::move(value));
  }

  // Awaitable receive; throws HostCrashedError if the owning host crashes
  // while waiting.
  auto Receive() { return ReceiveAwaiter(this, std::nullopt); }

  // Awaitable receive with timeout; resumes with std::nullopt if `timeout`
  // elapses first.
  auto ReceiveWithTimeout(Duration timeout) {
    return ReceiveAwaiter(this, timeout);
  }

  // Non-blocking receive.
  std::optional<T> TryReceive() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

  void Clear() { queue_.clear(); }

 private:
  struct Receiver {
    std::weak_ptr<WaitState> state;
    std::shared_ptr<std::optional<T>> slot;
  };

  Executor* executor() const {
    CIRCUS_CHECK(host_ != nullptr);
    return &host_->executor();
  }

  class ReceiveAwaiter {
   public:
    ReceiveAwaiter(Channel* channel, std::optional<Duration> timeout)
        : channel_(channel), timeout_(timeout) {}

    bool await_ready() {
      if (channel_->host_ != nullptr && !channel_->host_->up()) {
        host_down_ = true;
        return true;
      }
      if (!channel_->queue_.empty()) {
        immediate_ = std::move(channel_->queue_.front());
        channel_->queue_.pop_front();
        return true;
      }
      return false;
    }

    void await_suspend(std::coroutine_handle<> h) {
      state_ = std::make_shared<WaitState>();
      state_->handle = h;
      slot_ = std::make_shared<std::optional<T>>();
      if (channel_->host_ != nullptr) {
        channel_->host_->RegisterWaiter(state_);
        if (state_->settled) {
          return;  // host went down between ready and suspend (defensive)
        }
      }
      channel_->receivers_.push_back(Receiver{state_, slot_});
      if (timeout_.has_value()) {
        std::shared_ptr<WaitState> s = state_;
        executor_ = channel_->executor();
        timer_ = executor_->ScheduleAfter(*timeout_, [s] {
          if (s->settled) {
            return;
          }
          s->settled = true;
          s->timed_out = true;
          s->handle.resume();
        });
      }
    }

    // Returns the received value, or nullopt on timeout. (For the no-
    // timeout Receive(), callers use ReceiveValue via Channel::Receive
    // wrappers below; nullopt cannot occur there but the type is shared.)
    std::optional<T> await_resume() {
      if (host_down_) {
        throw HostCrashedError();
      }
      if (immediate_.has_value()) {
        return std::move(immediate_);
      }
      if (timer_ != 0 && !state_->timed_out) {
        // A value or a crash won the race: the timeout leaves the queue
        // now instead of firing as a no-op later. The executor was cached
        // at suspend because the channel (say, a discarded return slot)
        // may have been destroyed while this waiter slept.
        executor_->Cancel(timer_);
      }
      if (state_->crashed) {
        throw HostCrashedError();
      }
      if (state_->timed_out) {
        return std::nullopt;
      }
      return std::move(*slot_);
    }

   private:
    Channel* channel_;
    std::optional<Duration> timeout_;
    bool host_down_ = false;
    std::optional<T> immediate_;
    std::shared_ptr<WaitState> state_;
    std::shared_ptr<std::optional<T>> slot_;
    Executor* executor_ = nullptr;
    uint64_t timer_ = 0;  // the timeout's event id; 0 when none armed
  };

  Host* host_;
  std::deque<T> queue_;
  std::deque<Receiver> receivers_;
};

// Convenience coroutine: receive and unwrap (no timeout, so the optional
// is always engaged).
template <typename T>
Task<T> ReceiveValue(Channel<T>& channel) {
  std::optional<T> v = co_await channel.Receive();
  CIRCUS_CHECK(v.has_value());
  co_return std::move(*v);
}

}  // namespace circus::sim

#endif  // SRC_SIM_CHANNEL_H_
