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
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/sim/crash.h"
#include "src/sim/host.h"

namespace circus::sim {

// A FIFO queue over one vector and a head index. It allocates on its
// first push only and then reuses its storage: the head resets when the
// queue drains, and the live tail moves to the front once the head
// passes the middle, so a steady queue settles at a fixed capacity.
template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }
  T& front() { return items_[head_]; }
  void push_back(T value) { items_.push_back(std::move(value)); }
  T pop_front() {
    T value = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      clear();
    } else if (head_ > items_.size() / 2) {
      items_.erase(items_.begin(), items_.begin() + head_);
      head_ = 0;
    }
    return value;
  }
  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> items_;
  size_t head_ = 0;
};

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
      std::shared_ptr<Waiter> waiter = receivers_.pop_front().lock();
      if (!waiter || waiter->settled) {
        continue;
      }
      waiter->value.emplace(std::move(value));
      waiter->Wake(*executor());
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
    return queue_.pop_front();
  }

 private:
  // One suspended receive: its wait state and the slot Send fills, in one
  // heap block. The awaiter owns it; the channel and the host hold weak
  // references.
  struct Waiter : WaitState {
    std::optional<T> value;
  };

  Executor* executor() const {
    CIRCUS_CHECK(host_ != nullptr);
    return &host_->executor();
  }

  // Queues a receiver behind the live ones. Receivers that timed out or
  // crashed leave from the front first (Send would skip them anyway), so
  // a channel that keeps timing out does not grow.
  void AddReceiver(const std::shared_ptr<Waiter>& waiter) {
    while (!receivers_.empty()) {
      std::shared_ptr<Waiter> front = receivers_.front().lock();
      if (front && !front->settled) {
        break;
      }
      receivers_.pop_front();
    }
    receivers_.push_back(waiter);
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
        immediate_ = channel_->queue_.pop_front();
        return true;
      }
      return false;
    }

    void await_suspend(std::coroutine_handle<> h) {
      waiter_ = std::make_shared<Waiter>();
      waiter_->handle = h;
      if (channel_->host_ != nullptr) {
        channel_->host_->RegisterWaiter(waiter_);
        if (waiter_->settled) {
          return;  // host went down between ready and suspend (defensive)
        }
      }
      channel_->AddReceiver(waiter_);
      if (timeout_.has_value()) {
        timer_.Arm(channel_->executor(), waiter_.get(), *timeout_);
      }
    }

    // Returns the received value, or nullopt on timeout. (For the no-
    // timeout Receive(), callers use ReceiveValue via Channel::Receive
    // wrappers below; nullopt cannot occur there but the type is shared.)
    std::optional<T> await_resume() {
      if (host_down_) {
        throw HostCrashedError();
      }
      if (waiter_ == nullptr) {
        return std::move(immediate_);
      }
      if (waiter_->crashed) {
        throw HostCrashedError();
      }
      return std::move(waiter_->value);  // empty on timeout
    }

   private:
    Channel* channel_;
    std::optional<Duration> timeout_;
    bool host_down_ = false;
    std::optional<T> immediate_;
    std::shared_ptr<Waiter> waiter_;
    WaitTimeout timer_;  // declared after waiter_, so cancelled before it dies
  };

  Host* host_;
  Fifo<T> queue_;
  Fifo<std::weak_ptr<Waiter>> receivers_;
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
