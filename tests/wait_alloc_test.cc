// Heap cost of the simulator's wait path and of one paired-message echo.
// This binary replaces the global operator new with a counting one, so
// each test can state exactly how many heap blocks a channel operation, a
// suspension or a wakeup costs: an empty channel owns nothing, a
// warmed-up send/receive cycle allocates nothing, a receive that suspends
// allocates one block (its waiter) and the wake that ends it none, and a
// zero-cost system call allocates nothing at all. A warm echo between two
// PairedEndpoints is held to a per-echo budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <ostream>
#include <string>

#include "src/common/check.h"
#include "src/msg/paired_endpoint.h"
#include "src/net/socket.h"
#include "src/net/world.h"
#include "src/sim/channel.h"
#include "src/sim/crash.h"
#include "src/sim/executor.h"
#include "src/sim/host.h"
#include "src/sim/syscall.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace {
int64_t g_allocations = 0;
}  // namespace

// All out of line, so the compiler cannot see malloc() and free() behind
// a new-expression and warn of a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace circus::sim {
namespace {

// Heap blocks allocated since construction.
class AllocationCount {
 public:
  int64_t operator()() const { return g_allocations - start_; }

 private:
  int64_t start_ = g_allocations;
};

TEST(WaitAllocTest, EmptyChannelOwnsNoHeapMemory) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  AllocationCount count;
  {
    Channel<int> ints(&host);
    Channel<std::string> strings(&host);
    Channel<int> god_level(nullptr);
    EXPECT_TRUE(ints.empty() && strings.empty() && god_level.empty());
  }
  EXPECT_EQ(count(), 0);
}

TEST(WaitAllocTest, WarmSendAndTryReceiveAllocateNothing) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  // The first burst sizes the queue's storage; later bursts reuse it.
  for (int i = 0; i < 4; ++i) {
    ch.Send(i);
  }
  while (ch.TryReceive().has_value()) {
  }
  AllocationCount count;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 4; ++i) {
      ch.Send(i);
    }
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(ch.TryReceive(), i);
    }
  }
  EXPECT_EQ(count(), 0);
}

TEST(WaitAllocTest, FreeSyscallAllocatesNothing) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  int64_t allocations = -1;
  ex.Spawn([](Host* h, int64_t* out) -> Task<void> {
    AllocationCount count;
    for (int i = 0; i < 10; ++i) {
      co_await h->DoSyscall(Syscall::kSendMsg);
    }
    *out = count();
  }(&host, &allocations));
  ex.RunUntilIdle();
  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(host.cpu().count(Syscall::kSendMsg), 10u);
}

// How a suspended receive ends.
enum class Wake { kValue, kValueBeatsTimeout, kTimeout, kCrash };

struct WakeCase {
  const char* name;
  Wake wake;
};

void PrintTo(const WakeCase& c, std::ostream* os) { *os << c.name; }

std::string WakeCaseName(const ::testing::TestParamInfo<WakeCase>& param) {
  return param.param.name;
}

class WaitWakeAllocTest : public ::testing::TestWithParam<WakeCase> {
 protected:
  bool timed() const { return GetParam().wake != Wake::kValue; }

  // Receives until the host stays down, re-suspending as soon as each
  // wait ends.
  static Task<void> ReceiveLoop(Channel<int>* ch, bool timed, int* ended) {
    while (ch->host()->up()) {
      try {
        if (timed) {
          co_await ch->ReceiveWithTimeout(Duration::Millis(10));
        } else {
          co_await ch->Receive();
        }
      } catch (const HostCrashedError&) {
      }
      ++*ended;
    }
  }

  // Ends the current wait the way the case says: the wake alone.
  void Wake() {
    switch (GetParam().wake) {
      case Wake::kValue:
      case Wake::kValueBeatsTimeout:
        ch_.Send(7);
        break;
      case Wake::kTimeout:
        break;  // the armed timeout is the wake
      case Wake::kCrash:
        host_.Crash();
        break;
    }
  }

  // Runs the resumption: the ended wait's coroutine runs to its next
  // suspension.
  void Resume() {
    if (GetParam().wake == Wake::kCrash) {
      host_.Restart();
    }
    ASSERT_TRUE(ex_.RunOne());
  }

  Executor ex_;
  Host host_{&ex_, 1, "h", SyscallCostModel::Free()};
  Channel<int> ch_{&host_};
};

TEST_P(WaitWakeAllocTest, SuspensionCostsOneBlockAndItsWakeNone) {
  int ended = 0;
  ex_.Spawn(ReceiveLoop(&ch_, timed(), &ended));
  const size_t armed = timed() ? 1u : 0u;  // the pending timeout, if any
  // Warm up the executor's queue, the host's waiter registry and the
  // channel's receiver queue to their steady capacities.
  for (int i = 0; i < 300; ++i) {
    Wake();
    Resume();
  }
  ASSERT_EQ(ended, 300);
  for (int i = 0; i < 50; ++i) {
    AllocationCount wake;
    Wake();
    EXPECT_EQ(wake(), 0);
    AllocationCount suspend;
    Resume();
    EXPECT_EQ(suspend(), 1);  // the next wait's waiter
    EXPECT_EQ(ex_.pending_events(), armed);
  }
  EXPECT_EQ(ended, 350);
  host_.Crash();  // reap the loop
  ex_.RunUntilIdle();
}

INSTANTIATE_TEST_SUITE_P(
    Wakes, WaitWakeAllocTest,
    ::testing::Values(WakeCase{"Value", Wake::kValue},
                      WakeCase{"ValueBeatsTimeout", Wake::kValueBeatsTimeout},
                      WakeCase{"Timeout", Wake::kTimeout},
                      WakeCase{"Crash", Wake::kCrash}),
    WakeCaseName);

// Echoes every call back as its return.
Task<void> EchoServer(msg::PairedEndpoint* ep) {
  while (true) {
    msg::Message m = co_await ep->NextIncomingCall();
    co_await ep->SendMessage(m.peer, msg::MessageType::kReturn,
                             m.call_number, std::move(m.data));
  }
}

// Makes `warm` sequential 16-byte echoes, then `measured` more, and
// stores the heap blocks the measured ones allocated in `blocks`.
Task<void> EchoClient(msg::PairedEndpoint* ep, net::NetAddress to, int warm,
                      int measured, int64_t* blocks) {
  AllocationCount count;
  for (int i = 0; i < warm + measured; ++i) {
    if (i == warm) {
      count = AllocationCount();
    }
    const uint32_t call = static_cast<uint32_t>(i + 1);
    circus::Bytes body(16, 'e');
    circus::Status sent = co_await ep->SendMessage(
        to, msg::MessageType::kCall, call, std::move(body));
    CIRCUS_CHECK(sent.ok());
    circus::StatusOr<msg::Message> reply = co_await ep->AwaitReturn(to, call);
    CIRCUS_CHECK(reply.ok() && reply->data.size() == 16);
  }
  *blocks = count();
}

TEST(EchoAllocTest, WarmEchoStaysWithinItsHeapBudget) {
  // Heap blocks one warm single-segment echo allocates across both
  // endpoints, the simulated network and the coroutines driving them.
  constexpr int64_t kBlocksPerEcho = 29;
  constexpr int kEchoes = 1000;
  net::World world(3, SyscallCostModel::Free());
  Host* client_host = world.AddHost("client");
  Host* server_host = world.AddHost("server");
  net::DatagramSocket client_socket(&world.network(), client_host, 0);
  net::DatagramSocket server_socket(&world.network(), server_host, 9000);
  msg::PairedEndpoint client(&client_socket, {});
  msg::PairedEndpoint server(&server_socket, {});
  server_host->Spawn(EchoServer(&server));
  int64_t blocks = -1;
  // The warm-up fills the completed histories and sizes every queue.
  world.executor().Spawn(EchoClient(&client, server.local_address(),
                                    /*warm=*/200, kEchoes, &blocks));
  world.RunFor(Duration::Seconds(600));
  ASSERT_GE(blocks, 0) << "the echoes did not finish";
  EXPECT_LE(blocks, kBlocksPerEcho * kEchoes)
      << static_cast<double>(blocks) / kEchoes << " blocks per echo";
}

}  // namespace
}  // namespace circus::sim
