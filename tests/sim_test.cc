#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/channel.h"
#include "src/sim/crash.h"
#include "src/sim/executor.h"
#include "src/sim/host.h"
#include "src/sim/notification.h"
#include "src/sim/random.h"
#include "src/sim/syscall.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "tests/test_util.h"

namespace circus::sim {
namespace {

using circus::testing::RunTask;

// ---------------------------------------------------------------- Time --

TEST(TimeTest, DurationArithmetic) {
  Duration a = Duration::Millis(5);
  Duration b = Duration::Micros(500);
  EXPECT_EQ((a + b).nanos(), 5500000);
  EXPECT_EQ((a - b).nanos(), 4500000);
  EXPECT_EQ((a * 3).nanos(), 15000000);
  EXPECT_EQ((a / 5).nanos(), 1000000);
  EXPECT_LT(b, a);
  EXPECT_DOUBLE_EQ(a.ToMillisF(), 5.0);
}

TEST(TimeTest, FractionalMillis) {
  EXPECT_EQ(Duration::MillisF(8.1).nanos(), 8100000);
  EXPECT_EQ(Duration::MillisF(0.4).nanos(), 400000);
}

TEST(TimeTest, TimePointArithmetic) {
  TimePoint t0;
  TimePoint t1 = t0 + Duration::Seconds(2);
  EXPECT_EQ((t1 - t0).nanos(), 2000000000);
  EXPECT_GT(t1, t0);
  EXPECT_EQ((t1 - Duration::Seconds(2)), t0);
}

TEST(TimeTest, ToString) {
  EXPECT_EQ(Duration::Millis(12).ToString(), "12ms");
  EXPECT_EQ(Duration::MillisF(8.1).ToString(), "8.100ms");
}

// ------------------------------------------------------------ Executor --

TEST(ExecutorTest, RunsEventsInTimeOrder) {
  Executor ex;
  std::vector<int> order;
  ex.ScheduleAfter(Duration::Millis(20), [&] { order.push_back(2); });
  ex.ScheduleAfter(Duration::Millis(10), [&] { order.push_back(1); });
  ex.ScheduleAfter(Duration::Millis(30), [&] { order.push_back(3); });
  ex.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(30).nanos());
}

TEST(ExecutorTest, EqualTimesRunInSchedulingOrder) {
  Executor ex;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ex.ScheduleAfter(Duration::Millis(1), [&order, i] {
      order.push_back(i);
    });
  }
  ex.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ExecutorTest, CancelPreventsExecution) {
  Executor ex;
  bool ran = false;
  const uint64_t id =
      ex.ScheduleAfter(Duration::Millis(1), [&] { ran = true; });
  ex.Cancel(id);
  ex.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(ExecutorTest, RunUntilAdvancesClockToDeadline) {
  Executor ex;
  bool ran = false;
  ex.ScheduleAfter(Duration::Millis(100), [&] { ran = true; });
  ex.RunUntil(TimePoint() + Duration::Millis(50));
  EXPECT_FALSE(ran);
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(50).nanos());
  ex.RunUntil(TimePoint() + Duration::Millis(200));
  EXPECT_TRUE(ran);
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(200).nanos());
}

TEST(ExecutorTest, NestedSchedulingFromCallback) {
  Executor ex;
  int hits = 0;
  ex.ScheduleAfter(Duration::Millis(1), [&] {
    ++hits;
    ex.ScheduleAfter(Duration::Millis(1), [&] { ++hits; });
  });
  ex.RunUntilIdle();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(2).nanos());
}

// Model-based check of the indexed heap: random schedule / cancel / run
// sequences (callbacks that cancel or schedule in turn, stale ids whose
// slots were reused, and many equal deadlines) against a reference map
// ordered by (deadline, scheduling order).
class ExecutorModelProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  using Key = std::pair<TimePoint, uint64_t>;  // (when, scheduling order)

  void Schedule() {
    // Coarse deadlines so that many events tie.
    const TimePoint when =
        ex_.now() + Duration::Millis(rng_.UniformInt(0, 8));
    const size_t tag = ids_.size();  // ids_[tag] is this event's id
    const uint64_t id = ex_.ScheduleAt(when, [this, tag] { Fired(tag); });
    ASSERT_NE(id, 0u);
    for (uint64_t earlier : ids_) {
      ASSERT_NE(earlier, id) << "id handed out twice";
    }
    ids_.push_back(id);
    const Key key{when, order_++};
    model_.emplace(key, tag);
    live_.emplace(id, key);
  }

  // Cancels a random id ever handed out: live, already run, cancelled, or
  // stale with its slot since reused.
  void CancelAny() {
    const uint64_t id = ids_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(ids_.size()) - 1))];
    ex_.Cancel(id);
    if (auto it = live_.find(id); it != live_.end()) {
      model_.erase(it->second);
      live_.erase(it);
    }
  }

  void Fired(size_t tag) {
    ran_ = tag;
    // Callbacks act on the queue too.
    const int64_t action = rng_.UniformInt(0, 3);
    if (action == 0) {
      CancelAny();
    } else if (action == 1) {
      Schedule();
    }
  }

  void RunOneAndCheck() {
    ASSERT_FALSE(model_.empty());
    const auto head = model_.begin();
    const size_t expected = head->second;
    const TimePoint when = head->first.first;
    live_.erase(ids_[expected]);
    model_.erase(head);
    ASSERT_TRUE(ex_.RunOne());
    EXPECT_EQ(ran_, expected);
    EXPECT_EQ(ex_.now(), when);
  }

  void CheckQueue() {
    ASSERT_EQ(ex_.pending_events(), model_.size());
    if (model_.empty()) {
      EXPECT_FALSE(ex_.NextEventTime().has_value());
    } else {
      EXPECT_EQ(ex_.NextEventTime(), model_.begin()->first.first);
    }
  }

  Executor ex_;
  Rng rng_{GetParam()};
  std::vector<uint64_t> ids_;
  std::map<Key, size_t> model_;   // -> tag
  std::map<uint64_t, Key> live_;  // live id -> model key
  size_t ran_ = SIZE_MAX;         // tag of the last callback run
  uint64_t order_ = 0;
};

TEST_P(ExecutorModelProperty, MatchesReferenceQueue) {
  for (int step = 0; step < 4000; ++step) {
    const int64_t op = rng_.UniformInt(0, 9);
    if (op < 4 || ids_.empty()) {
      Schedule();
    } else if (op < 6) {
      CancelAny();
    } else if (!model_.empty()) {
      RunOneAndCheck();
    }
    CheckQueue();
    if (HasFailure()) {
      return;
    }
  }
  while (!model_.empty()) {
    RunOneAndCheck();
    CheckQueue();
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_FALSE(ex_.RunOne());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorModelProperty,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------- Task --

Task<int> Return42() { co_return 42; }

Task<int> AddNested() {
  const int a = co_await Return42();
  const int b = co_await Return42();
  co_return a + b;
}

TEST(TaskTest, ReturnsValue) {
  Executor ex;
  EXPECT_EQ(RunTask(ex, Return42()), 42);
}

TEST(TaskTest, NestedAwaits) {
  Executor ex;
  EXPECT_EQ(RunTask(ex, AddNested()), 84);
}

Task<int> Throws() {
  throw std::runtime_error("boom");
  co_return 0;  // unreachable
}

Task<int> CatchesNested() {
  try {
    co_await Throws();
  } catch (const std::runtime_error& e) {
    co_return 7;
  }
  co_return 0;
}

TEST(TaskTest, ExceptionsPropagateToAwaiter) {
  Executor ex;
  EXPECT_EQ(RunTask(ex, CatchesNested()), 7);
}

Task<int> SleepsViaExecutor(Executor* ex) {
  co_await ex->SleepFor(Duration::Millis(5));
  co_await ex->SleepFor(Duration::Millis(5));
  co_return static_cast<int>(ex->now().nanos() / 1000000);
}

TEST(TaskTest, ExecutorSleepAdvancesVirtualTime) {
  Executor ex;
  EXPECT_EQ(RunTask(ex, SleepsViaExecutor(&ex)), 10);
}

TEST(TaskTest, SpawnCountsLiveTasks) {
  Executor ex;
  ex.Spawn([](Executor* e) -> Task<void> {
    co_await e->SleepFor(Duration::Millis(1));
  }(&ex));
  EXPECT_EQ(ex.live_detached_tasks(), 1);
  ex.RunUntilIdle();
  EXPECT_EQ(ex.live_detached_tasks(), 0);
}

// ---------------------------------------------------------------- Host --

TEST(HostTest, SyscallChargesCpuAndAdvancesTime) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Berkeley42Bsd());
  RunTask(ex, [](Host* h) -> Task<void> {
    co_await h->DoSyscall(Syscall::kSendMsg);
    co_await h->DoSyscall(Syscall::kRecvMsg);
    co_await h->Compute(Duration::MillisF(1.5));
  }(&host));
  EXPECT_EQ(host.cpu().count(Syscall::kSendMsg), 1u);
  EXPECT_EQ(host.cpu().count(Syscall::kRecvMsg), 1u);
  EXPECT_EQ(host.cpu().kernel_time().nanos(),
            Duration::MillisF(8.1 + 2.8).nanos());
  EXPECT_EQ(host.cpu().user_time.nanos(), Duration::MillisF(1.5).nanos());
  // Real time advanced by the CPU consumed.
  EXPECT_EQ(ex.now().nanos(), Duration::MillisF(12.4).nanos());
}

TEST(HostTest, CrashWakesSleeperWithHostCrashedError) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  bool crashed_seen = false;
  bool completed = false;
  ex.Spawn([](Host* h, bool* crashed, bool* done) -> Task<void> {
    try {
      co_await h->SleepFor(Duration::Seconds(10));
      *done = true;
    } catch (const HostCrashedError&) {
      *crashed = true;
    }
  }(&host, &crashed_seen, &completed));
  ex.ScheduleAfter(Duration::Millis(5), [&] { host.Crash(); });
  ex.RunUntilIdle();
  EXPECT_TRUE(crashed_seen);
  EXPECT_FALSE(completed);
  EXPECT_FALSE(host.up());
  // The sleep's timer left the queue with the crash: the executor drained
  // at 5 ms, not at the 10 s deadline.
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(5).nanos());
}

TEST(HostTest, CrashReapsDetachedTaskSilently) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  ex.Spawn([](Host* h) -> Task<void> {
    co_await h->SleepFor(Duration::Seconds(100));
  }(&host));
  ex.ScheduleAfter(Duration::Millis(1), [&] { host.Crash(); });
  ex.RunUntilIdle();
  EXPECT_EQ(ex.live_detached_tasks(), 0);
}

TEST(HostTest, WaitingOnDownHostThrowsImmediately) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  host.Crash();
  bool threw = false;
  ex.Spawn([](Host* h, bool* out) -> Task<void> {
    try {
      co_await h->SleepFor(Duration::Millis(1));
    } catch (const HostCrashedError&) {
      *out = true;
    }
  }(&host, &threw));
  ex.RunUntilIdle();
  EXPECT_TRUE(threw);
}

TEST(HostTest, RestartBumpsIncarnation) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  EXPECT_EQ(host.incarnation(), 1u);
  host.Crash();
  host.Restart();
  EXPECT_TRUE(host.up());
  EXPECT_EQ(host.incarnation(), 2u);
}

TEST(HostTest, CrashListenersFireOnce) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  int fires = 0;
  host.AddCrashListener([&] { ++fires; });
  host.Crash();
  host.Crash();  // idempotent
  EXPECT_EQ(fires, 1);
  host.Restart();
  host.Crash();  // listener was consumed
  EXPECT_EQ(fires, 1);
}

TEST(HostTest, ClockSkewShiftsLocalClock) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  host.set_clock_skew(Duration::Millis(7));
  ex.ScheduleAfter(Duration::Millis(10), [] {});
  ex.RunUntilIdle();
  EXPECT_EQ(host.LocalClockNanos(), Duration::Millis(17).nanos());
  // Round trip: the sim time at which the local clock reads a value.
  EXPECT_EQ(host.SimTimeForLocal(Duration::Millis(17).nanos()).nanos(),
            Duration::Millis(10).nanos());
}

TEST(HostTest, ConcurrentCpuChargesSerialize) {
  // Two tasks each burning 5 ms of CPU on one host take 10 ms of real
  // time: a machine has one processor (Section 4.4.1's linearity).
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  int finished = 0;
  for (int i = 0; i < 2; ++i) {
    ex.Spawn([](Host* h, int* done) -> Task<void> {
      co_await h->Compute(Duration::Millis(5));
      ++*done;
    }(&host, &finished));
  }
  ex.RunUntilIdle();
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(10).nanos());
}

TEST(HostTest, SyscallOnDownHostThrowsAtAnyCost) {
  // A zero-cost call completes without suspending, a costly one through
  // the CPU occupation; both are charged and both throw on a down host.
  for (const SyscallCostModel& model :
       {SyscallCostModel::Free(), SyscallCostModel::Berkeley42Bsd()}) {
    Executor ex;
    Host host(&ex, 1, "vax1", model);
    host.Crash();
    bool threw = false;
    ex.Spawn([](Host* h, bool* out) -> Task<void> {
      try {
        co_await h->DoSyscall(Syscall::kSendMsg);
      } catch (const HostCrashedError&) {
        *out = true;
      }
    }(&host, &threw));
    ex.RunUntilIdle();
    EXPECT_TRUE(threw);
    EXPECT_EQ(host.cpu().count(Syscall::kSendMsg), 1u);
  }
}

TEST(HostTest, CrashDuringCostlySyscallThrows) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Berkeley42Bsd());
  bool threw = false;
  ex.Spawn([](Host* h, bool* out) -> Task<void> {
    try {
      co_await h->DoSyscall(Syscall::kSendMsg);  // 8.1 ms of CPU
    } catch (const HostCrashedError&) {
      *out = true;
    }
  }(&host, &threw));
  ex.ScheduleAfter(Duration::Millis(1), [&] { host.Crash(); });
  ex.RunUntilIdle();
  EXPECT_TRUE(threw);
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(1).nanos());
}

TEST(HostTest, DestroyingSleeperCancelsItsTimer) {
  // The sleep's timer points at the sleeper's wait state, so it must
  // leave the queue with the coroutine, not fire into freed memory.
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  const size_t before = ex.pending_events();
  std::coroutine_handle<> frame = [](Host* h) -> Task<void> {
    co_await h->SleepFor(Duration::Seconds(5));
  }(&host).Release();
  frame.resume();  // runs to the sleep
  EXPECT_EQ(ex.pending_events(), before + 1);
  frame.destroy();
  EXPECT_EQ(ex.pending_events(), before);
  host.Crash();  // the registry's entry for the dead sleeper is skipped
  ex.RunUntilIdle();
  EXPECT_EQ(ex.now().nanos(), 0);
}

TEST(HostTest, SleepCompletesNormallyWhenNoCrash) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  RunTask(ex, [](Host* h) -> Task<void> {
    co_await h->SleepFor(Duration::Millis(7));
  }(&host));
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(7).nanos());
}

// ------------------------------------------------------------- Channel --

TEST(ChannelTest, SendThenReceive) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  ch.Send(1);
  ch.Send(2);
  const int a = RunTask(ex, ReceiveValue(ch));
  const int b = RunTask(ex, ReceiveValue(ch));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(ChannelTest, ReceiveBlocksUntilSend) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  int got = 0;
  ex.Spawn([](Channel<int>* c, int* out) -> Task<void> {
    *out = co_await ReceiveValue(*c);
  }(&ch, &got));
  ex.RunUntilIdle();
  EXPECT_EQ(got, 0);
  ex.ScheduleAfter(Duration::Millis(3), [&] { ch.Send(99); });
  ex.RunUntilIdle();
  EXPECT_EQ(got, 99);
}

TEST(ChannelTest, MultipleWaitersWakeFifo) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    ex.Spawn([](Channel<int>* c, std::vector<int>* out) -> Task<void> {
      out->push_back(co_await ReceiveValue(*c));
    }(&ch, &got));
  }
  ex.RunUntilIdle();
  ch.Send(10);
  ch.Send(20);
  ch.Send(30);
  ex.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(ChannelTest, TimeoutReturnsNullopt) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  bool timed_out = false;
  ex.Spawn([](Channel<int>* c, bool* out) -> Task<void> {
    std::optional<int> v =
        co_await c->ReceiveWithTimeout(Duration::Millis(5));
    *out = !v.has_value();
  }(&ch, &timed_out));
  ex.RunUntilIdle();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(5).nanos());
}

TEST(ChannelTest, ValueBeatsTimeout) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  std::optional<int> got;
  const size_t before = ex.pending_events();
  ex.Spawn([](Channel<int>* c, std::optional<int>* out) -> Task<void> {
    *out = co_await c->ReceiveWithTimeout(Duration::Millis(50));
  }(&ch, &got));
  ex.ScheduleAfter(Duration::Millis(1), [&] { ch.Send(5); });
  ex.RunFor(Duration::Millis(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 5);
  // The losing timeout left the queue when the value won, not at its
  // 50 ms deadline.
  EXPECT_EQ(ex.pending_events(), before);
}

TEST(ChannelTest, CrashWakesReceiver) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  int crashed = 0;
  const size_t before = ex.pending_events();
  ex.Spawn([](Channel<int>* c, int* out) -> Task<void> {
    try {
      co_await c->Receive();
    } catch (const HostCrashedError&) {
      ++*out;
    }
  }(&ch, &crashed));
  ex.Spawn([](Channel<int>* c, int* out) -> Task<void> {
    try {
      co_await c->ReceiveWithTimeout(Duration::Seconds(5));
    } catch (const HostCrashedError&) {
      ++*out;
    }
  }(&ch, &crashed));
  EXPECT_EQ(ex.pending_events(), before + 1);  // the timeout
  ex.ScheduleAfter(Duration::Millis(1), [&] { host.Crash(); });
  ex.RunFor(Duration::Millis(2));
  EXPECT_EQ(crashed, 2);
  // The crash won, so the timed waiter cancelled its timeout.
  EXPECT_EQ(ex.pending_events(), before);
}

TEST(ChannelTest, CrashWakesWaiterWhoseChannelIsGone) {
  // A return slot can be destroyed while its waiter sleeps; the waiter
  // must cancel its timeout without touching the dead channel.
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  auto ch = std::make_unique<Channel<int>>(&host);
  bool crashed = false;
  ex.Spawn([](Channel<int>* c, bool* out) -> Task<void> {
    try {
      co_await c->ReceiveWithTimeout(Duration::Seconds(5));
    } catch (const HostCrashedError&) {
      *out = true;
    }
  }(ch.get(), &crashed));
  ex.RunFor(Duration::Millis(1));
  ch.reset();
  host.Crash();
  ex.RunFor(Duration::Millis(1));
  EXPECT_TRUE(crashed);
  EXPECT_EQ(ex.pending_events(), 0u);
}

TEST(ChannelTest, DestroyingSuspendedReceiverCancelsItsTimeout) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  const size_t before = ex.pending_events();
  std::coroutine_handle<> frame = [](Channel<int>* c) -> Task<void> {
    co_await c->ReceiveWithTimeout(Duration::Seconds(5));
  }(&ch).Release();
  frame.resume();  // runs to the receive
  EXPECT_EQ(ex.pending_events(), before + 1);
  frame.destroy();
  EXPECT_EQ(ex.pending_events(), before);
  // The dead receiver is skipped: the value queues for the next one.
  ch.Send(3);
  EXPECT_EQ(ch.size(), 1u);
  EXPECT_EQ(ch.TryReceive(), 3);
  EXPECT_EQ(ex.pending_events(), before);
}

TEST(ChannelTest, ReceiverThatKeptTimingOutGetsTheNextValue) {
  // Each timed-out wait leaves the channel a dead receiver; none of them
  // may take the value meant for the live one.
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  int timeouts = 0;
  std::optional<int> got;
  ex.Spawn([](Channel<int>* c, int* t, std::optional<int>* out)
               -> Task<void> {
    while (true) {
      std::optional<int> v =
          co_await c->ReceiveWithTimeout(Duration::Millis(1));
      if (v.has_value()) {
        *out = v;
        co_return;
      }
      ++*t;
    }
  }(&ch, &timeouts, &got));
  ex.RunFor(Duration::MillisF(100.5));
  EXPECT_EQ(timeouts, 100);
  ch.Send(42);
  ex.RunUntilIdle();
  EXPECT_EQ(got, 42);
  EXPECT_TRUE(ch.empty());
}

TEST(FifoTest, KeepsOrderAcrossDrainsAndCompaction) {
  Fifo<int> q;
  int next_in = 0;
  int next_out = 0;
  // Uneven push/pop rhythms drive the head past the middle (compaction)
  // and to the end (reset) many times.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < round % 7 + 1; ++i) {
      q.push_back(next_in++);
    }
    for (int i = 0; i < round % 5 + 1 && !q.empty(); ++i) {
      EXPECT_EQ(q.front(), next_out);
      EXPECT_EQ(q.pop_front(), next_out++);
    }
    EXPECT_EQ(q.size(), static_cast<size_t>(next_in - next_out));
  }
  while (!q.empty()) {
    EXPECT_EQ(q.pop_front(), next_out++);
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(ChannelTest, TryReceiveDoesNotBlock) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  EXPECT_FALSE(ch.TryReceive().has_value());
  ch.Send(1);
  std::optional<int> v = ch.TryReceive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
}

// -------------------------------------------------------- Notification --

TEST(NotificationTest, NotifyWakesAllWaiters) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Notification n(&host);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    ex.Spawn([](Notification* note, int* out) -> Task<void> {
      co_await note->Wait();
      ++*out;
    }(&n, &woken));
  }
  ex.RunUntilIdle();
  EXPECT_EQ(woken, 0);
  n.Notify();
  ex.RunUntilIdle();
  EXPECT_EQ(woken, 3);
}

TEST(NotificationTest, WaitAfterNotifyReturnsImmediately) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Notification n(&host);
  n.Notify();
  RunTask(ex, [](Notification* note) -> Task<void> {
    co_await note->Wait();
  }(&n));
}

// ------------------------------------------------------------- Random --

TEST(RandomTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, ForkedStreamsDiffer) {
  Rng root(7);
  Rng a = root.Fork();
  Rng b = root.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RandomTest, ExponentialHasApproximatelyRightMean) {
  Rng rng(42);
  const Duration mean = Duration::Millis(10);
  double sum_ms = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    sum_ms += rng.Exponential(mean).ToMillisF();
  }
  EXPECT_NEAR(sum_ms / kDraws, 10.0, 0.3);
}

TEST(RandomTest, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RandomTest, UniformIntInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

}  // namespace
}  // namespace circus::sim
