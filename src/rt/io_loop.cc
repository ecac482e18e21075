#include "src/rt/io_loop.h"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "src/common/check.h"

namespace circus::rt {

namespace {

int64_t RealtimeNanos() {
  timespec ts{};
  CIRCUS_CHECK(clock_gettime(CLOCK_REALTIME, &ts) == 0);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t IoLoop::MonotonicNanos() {
  timespec ts{};
  CIRCUS_CHECK(clock_gettime(CLOCK_MONOTONIC, &ts) == 0);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

IoLoop::IoLoop(sim::Executor* executor) : executor_(executor) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  CIRCUS_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  CIRCUS_CHECK_MSG(timer_fd_ >= 0, "timerfd_create failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = timer_fd_;
  CIRCUS_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) == 0);

  // Seed the virtual clock from the wall-clock epoch (see header).
  const sim::TimePoint epoch = sim::TimePoint::FromNanos(RealtimeNanos());
  if (epoch > executor_->now()) {
    executor_->RunUntil(epoch);
  }
  sim_origin_ = executor_->now();
  mono_origin_ns_ = MonotonicNanos();
}

IoLoop::~IoLoop() {
  if (timer_fd_ >= 0) {
    close(timer_fd_);
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
}

sim::TimePoint IoLoop::WallNow() const {
  return sim_origin_ +
         sim::Duration::Nanos(MonotonicNanos() - mono_origin_ns_);
}

void IoLoop::WatchFd(int fd, std::function<void()> on_readable) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  CIRCUS_CHECK_MSG(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
                   "epoll_ctl(ADD) failed");
  fd_callbacks_[fd] = std::move(on_readable);
}

void IoLoop::UnwatchFd(int fd) {
  if (fd_callbacks_.erase(fd) == 0) {
    return;
  }
  // May fail with EBADF if the caller closed the fd first; that removal
  // already happened implicitly in the kernel.
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void IoLoop::SetObservability(obs::EventBus* bus,
                              obs::MetricsRegistry* metrics) {
  bus_ = bus;
  if (metrics != nullptr) {
    wakeups_ = metrics->GetCounter("rt.loop.wakeups");
    fd_events_ = metrics->GetCounter("rt.loop.fd_events");
    timer_slack_us_ = metrics->GetHistogram("rt.loop.timer_slack_us");
    iter_us_ = metrics->GetHistogram("rt.loop.iter_us");
  } else {
    wakeups_ = nullptr;
    fd_events_ = nullptr;
    timer_slack_us_ = nullptr;
    iter_us_ = nullptr;
  }
}

void IoLoop::ArmTimer(sim::TimePoint wake) {
  armed_wake_ = wake;
  timer_armed_ = true;
  ++stats_.timer_arms;
  int64_t delta_ns = (wake - WallNow()).nanos();
  if (delta_ns < 1) {
    delta_ns = 1;  // 0 would disarm the timer
  }
  itimerspec its{};
  its.it_value.tv_sec = delta_ns / 1000000000;
  its.it_value.tv_nsec = delta_ns % 1000000000;
  CIRCUS_CHECK(timerfd_settime(timer_fd_, 0, &its, nullptr) == 0);
}

bool IoLoop::RunUntil(const std::function<bool()>& done,
                      sim::Duration wall_timeout) {
  stop_ = false;
  const sim::TimePoint deadline = WallNow() + wall_timeout;
  // Work/idle attribution: everything between epoll returns is work
  // (due events, done checks, fd callbacks); the epoll_wait itself is
  // idle. `mark` carries the boundary across iterations.
  int64_t mark = MonotonicNanos();
  while (!stop_) {
    // Run everything whose virtual deadline has passed, advancing the
    // executor clock to track the wall clock.
    executor_->RunUntil(WallNow());
    if (done && done()) {
      return true;
    }
    if (WallNow() >= deadline) {
      break;
    }
    sim::TimePoint wake = deadline;
    if (std::optional<sim::TimePoint> next = executor_->NextEventTime();
        next.has_value() && *next < wake) {
      wake = *next;
    }
    if (!timer_armed_ || wake < armed_wake_) {
      ArmTimer(wake);
    }
    const int64_t wait_start = MonotonicNanos();
    const int64_t work_ns = wait_start - mark;
    stats_.busy_ns += work_ns;
    if (iter_us_ != nullptr) {
      iter_us_->Observe(static_cast<double>(work_ns) / 1000.0);
    }
    epoll_event events[16];
    const int n = epoll_wait(epoll_fd_, events,
                             static_cast<int>(std::size(events)), -1);
    mark = MonotonicNanos();
    stats_.idle_ns += mark - wait_start;
    if (n < 0) {
      CIRCUS_CHECK_MSG(errno == EINTR, "epoll_wait failed");
      continue;
    }
    ++stats_.wakeups;
    bool timer_fired = false;
    int ready_fds = 0;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == timer_fd_) {
        timer_fired = true;
      } else {
        ++ready_fds;
      }
    }
    stats_.fd_events += static_cast<uint64_t>(ready_fds);
    int64_t slack_ns = 0;
    if (timer_fired) {
      ++stats_.timer_fires;
      timer_armed_ = false;
      slack_ns = (WallNow() - armed_wake_).nanos();
      if (slack_ns < 0) {
        slack_ns = 0;
      }
    }
    if (wakeups_ != nullptr) {
      wakeups_->Increment();
      fd_events_->Add(static_cast<uint64_t>(ready_fds));
      if (timer_fired) {
        timer_slack_us_->Observe(static_cast<double>(slack_ns) / 1000.0);
      }
    }
    if (bus_ != nullptr && bus_->active()) {
      obs::Event e;
      e.kind = obs::EventKind::kLoopWakeup;
      e.a = static_cast<uint64_t>(ready_fds);
      e.b = timer_fired ? 1 : 0;
      e.c = static_cast<uint64_t>(slack_ns);
      bus_->Publish(std::move(e));
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == timer_fd_) {
        uint64_t expirations = 0;
        // Drain; the only purpose was to bound the epoll_wait.
        [[maybe_unused]] ssize_t r =
            read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      // Re-look up per event: an earlier callback in this batch (or the
      // callback itself) may have unwatched the fd. Copy out so that
      // UnwatchFd from inside the callback cannot free the closure
      // mid-flight.
      auto it = fd_callbacks_.find(fd);
      if (it == fd_callbacks_.end()) {
        continue;
      }
      std::function<void()> cb = it->second;
      cb();
    }
  }
  return done ? done() : false;
}

}  // namespace circus::rt
