// A one-shot broadcast event: many coroutines wait, one Notify wakes all.
// Used for synchronization points such as "every expected call message of
// a many-to-one call has arrived" (Section 4.3.2).
#ifndef SRC_SIM_NOTIFICATION_H_
#define SRC_SIM_NOTIFICATION_H_

#include <coroutine>
#include <memory>
#include <vector>

#include "src/sim/crash.h"
#include "src/sim/host.h"

namespace circus::sim {

class Notification {
 public:
  explicit Notification(Host* host) : host_(host) {}
  Notification(const Notification&) = delete;
  Notification& operator=(const Notification&) = delete;

  bool notified() const { return notified_; }

  void Notify() {
    if (notified_) {
      return;
    }
    notified_ = true;
    std::vector<std::weak_ptr<WaitState>> waiters = std::move(waiters_);
    for (auto& weak : waiters) {
      std::shared_ptr<WaitState> state = weak.lock();
      if (!state || state->settled) {
        continue;
      }
      state->Wake(host_->executor());
    }
  }

  auto Wait() {
    struct Awaiter {
      Notification* n;
      std::shared_ptr<WaitState> state;
      bool host_down = false;
      bool await_ready() {
        if (n->host_ != nullptr && !n->host_->up()) {
          host_down = true;
          return true;
        }
        return n->notified_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        state = std::make_shared<WaitState>();
        state->handle = h;
        if (n->host_ != nullptr) {
          n->host_->RegisterWaiter(state);
          if (state->settled) {
            return;
          }
        }
        n->waiters_.push_back(state);
      }
      void await_resume() {
        if (host_down || (state && state->crashed)) {
          throw HostCrashedError();
        }
      }
    };
    return Awaiter{this, nullptr, false};
  }

 private:
  Host* host_;
  bool notified_ = false;
  std::vector<std::weak_ptr<WaitState>> waiters_;
};

}  // namespace circus::sim

#endif  // SRC_SIM_NOTIFICATION_H_
