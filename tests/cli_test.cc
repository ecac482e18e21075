// The `circus` command in-process: merge, lat and wire over per-node
// shards a sim World wrote; exit code 2 with usage for every bad command
// line; and the one UDP query client against a fake endpoint that
// answers late.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/core/process.h"
#include "src/net/world.h"
#include "src/obs/shard.h"
#include "src/rt/cli.h"
#include "src/rt/udp_query.h"

namespace circus::rt {
namespace {

using core::RpcProcess;
using sim::Duration;
using sim::Task;

// Runs `circus <args...>` in-process and returns its exit code.
int Circus(std::vector<std::string> args) {
  args.insert(args.begin(), "circus");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  return cli::Main(static_cast<int>(args.size()), argv.data());
}

// Per process: ctest runs each case as its own process, in parallel.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/cli_" + std::to_string(getpid()) + "_" +
         name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Task<void> EchoCalls(RpcProcess* client, core::Troupe troupe,
                     core::ModuleNumber module, int calls) {
  const core::ThreadId thread = client->NewRootThread();
  for (int i = 0; i < calls; ++i) {
    StatusOr<Bytes> r =
        co_await client->Call(thread, troupe, module, 0, Bytes(16, 'e'));
    CIRCUS_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  }
}

// One shard per node (a client and a two-member echo troupe), written
// by ShardWriters on a sim World's bus as if each node were a process.
std::vector<std::string> WriteShards() {
  net::World world(4242, sim::SyscallCostModel::Free());
  core::Troupe troupe;
  troupe.id = core::TroupeId{900};
  core::ModuleNumber module = 0;
  std::vector<std::unique_ptr<RpcProcess>> processes;
  std::vector<std::unique_ptr<obs::ShardWriter>> writers;
  std::vector<std::string> paths;
  for (const char* name : {"client", "member0", "member1"}) {
    sim::Host* host = world.AddHost(name);
    processes.push_back(
        std::make_unique<RpcProcess>(&world.network(), host, 9000));
    obs::ShardInfo info;
    info.node = name;
    info.role = "test";
    info.address = processes.back()->process_address().ToString();
    info.clock = "sim";
    paths.push_back(TempPath(std::string(name) + ".trace.jsonl"));
    writers.push_back(
        std::make_unique<obs::ShardWriter>(paths.back(), std::move(info)));
    writers.back()->Attach(&world.bus(), host->id());
  }
  for (size_t i = 1; i < processes.size(); ++i) {
    RpcProcess* member = processes[i].get();
    module = member->ExportModule("echo");
    member->ExportProcedure(
        module, 0,
        [](core::ServerCallContext&, const Bytes& args)
            -> Task<StatusOr<Bytes>> { co_return Bytes(args); });
    member->SetTroupeId(troupe.id);
    troupe.members.push_back(member->module_address(module));
  }
  world.executor().Spawn(EchoCalls(processes[0].get(), troupe, module, 5));
  world.RunFor(Duration::Seconds(10));
  for (auto& writer : writers) {
    writer->Detach();
    CIRCUS_CHECK(writer->Flush().ok());
  }
  return paths;
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { shards_ = new auto(WriteShards()); }
  static void TearDownTestSuite() { delete shards_; }

  // `args` followed by every shard path.
  static std::vector<std::string> WithShards(std::vector<std::string> args) {
    args.insert(args.end(), shards_->begin(), shards_->end());
    return args;
  }

  static std::vector<std::string>* shards_;
};

std::vector<std::string>* CliTest::shards_ = nullptr;

TEST_F(CliTest, MergeWritesAChromeTrace) {
  const std::string out = TempPath("merged.trace.json");
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(Circus(WithShards({"merge", "-o", out})), 0);
  const std::string report = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(report.find("wrote " + out), std::string::npos) << report;
  const std::string trace = Slurp(out);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"call "), std::string::npos);
}

TEST_F(CliTest, LatReportsTheCallsAndTheStageTable) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(Circus(WithShards({"lat", "-k", "2"})), 0);
  const std::string table = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(table.find("latency attribution: 5 calls"), std::string::npos)
      << table;
  EXPECT_NE(table.find("  end_to_end "), std::string::npos) << table;
}

TEST_F(CliTest, WireExitsZeroOnACleanAudit) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(Circus(WithShards({"wire", "--no-conversations"})), 0);
  const std::string report = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(report.find("wire audit: 0 violation"), std::string::npos)
      << report;
}

// Every bad command line exits 2 and prints usage, before any work.
TEST_F(CliTest, BadCommandLinesExitTwoWithUsage) {
  const std::string shard = shards_->front();
  const std::vector<std::vector<std::string>> kBad = {
      {},                                            // no subcommand
      {"bogus"},                                     // unknown subcommand
      {"merge", "--definitely-not-a-flag", shard},   // unknown flag
      {"merge", "-o"},                               // missing value
      {"merge"},                                     // missing positionals
      {"node", "a.conf", "b.conf"},                  // extra positional
      {"lat", "-k", "abc", shard},                   // bad numbers ...
      {"lat", "-k", "-1", shard},
      {"lat", "-k", "", shard},
      {"nemesis", "--seed", "abc"},
      {"nemesis", "--members", "3x"},
      {"nemesis", "--members", "9"},
      {"nemesis", "--workload", "kv"},
      {"top", "--interval", "10x", "127.0.0.1:9"},
      {"top", "--timeout", "0", "127.0.0.1:9"},
      {"top", "10.0.0.3:9000junk"},                  // bad addresses
      {"wire", "--member", "1.2.3:4", shard},
  };
  for (const std::vector<std::string>& args : kBad) {
    std::string line;
    for (const std::string& arg : args) {
      line += " " + arg;
    }
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(Circus(args), cli::kUsageError) << "circus" << line;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("usage: circus"), std::string::npos)
        << "circus" << line << "\n" << err;
  }
}

// ------------------------------------------------------- UDP queries --

// A loopback endpoint answering queries one at a time on its own
// thread: `answer(request, index)` gives the reply and how long to sit
// on it before sending.
class FakeEndpoint {
 public:
  struct Answer {
    std::string reply;
    int delay_ms = 0;
  };
  using Handler = std::function<Answer(const std::string&, int)>;

  explicit FakeEndpoint(Handler answer) : answer_(std::move(answer)) {
    fd_ = socket(AF_INET, SOCK_DGRAM, 0);
    CIRCUS_CHECK(fd_ >= 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    CIRCUS_CHECK(bind(fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
    socklen_t len = sizeof(addr);
    CIRCUS_CHECK(getsockname(fd_, reinterpret_cast<sockaddr*>(&addr),
                             &len) == 0);
    address_ = net::NetAddress{0x7F000001u, ntohs(addr.sin_port)};
    thread_ = std::thread([this] { Serve(); });
  }
  FakeEndpoint(const FakeEndpoint&) = delete;
  FakeEndpoint& operator=(const FakeEndpoint&) = delete;
  ~FakeEndpoint() {
    stop_ = true;
    thread_.join();
    close(fd_);
  }

  const net::NetAddress& address() const { return address_; }

 private:
  void Serve() {
    for (int index = 0; !stop_;) {
      pollfd pfd = {fd_, POLLIN, 0};
      if (poll(&pfd, 1, 20) <= 0) {
        continue;
      }
      char buffer[2048];
      sockaddr_in from = {};
      socklen_t from_len = sizeof(from);
      const ssize_t n = recvfrom(fd_, buffer, sizeof(buffer), 0,
                                 reinterpret_cast<sockaddr*>(&from),
                                 &from_len);
      if (n < 0) {
        continue;
      }
      const Answer answer =
          answer_(std::string(buffer, static_cast<size_t>(n)), index++);
      std::this_thread::sleep_for(std::chrono::milliseconds(answer.delay_ms));
      sendto(fd_, answer.reply.data(), answer.reply.size(), 0,
             reinterpret_cast<sockaddr*>(&from), from_len);
    }
  }

  Handler answer_;
  int fd_ = -1;
  net::NetAddress address_;
  std::atomic<bool> stop_ = false;
  std::thread thread_;
};

// The `circus top` desync: a reply that misses its query's timeout
// must not be read as the answer to the next query.
TEST(UdpQueryTest, LateReplyIsNotTakenAsTheNextQuerysAnswer) {
  FakeEndpoint endpoint([](const std::string& request, int index) {
    return FakeEndpoint::Answer{"answer to " + request, index == 0 ? 300 : 0};
  });
  EXPECT_EQ(UdpQuery(endpoint.address(), "first", /*timeout_ms=*/100),
            std::nullopt);
  // "answer to first" reaches the querier while this query waits.
  EXPECT_EQ(UdpQuery(endpoint.address(), "second", /*timeout_ms=*/2000),
            "answer to second");
  EXPECT_EQ(UdpQuery(endpoint.address(), "third", /*timeout_ms=*/2000),
            "answer to third");
}

TEST(UdpQueryTest, PagedQueryJoinsChunksInOrder) {
  FakeEndpoint endpoint([](const std::string& request, int) {
    if (request == "util 0") {
      return FakeEndpoint::Answer{"chunk 0 6\nfirst "};
    }
    if (request == "util 6") {
      return FakeEndpoint::Answer{"chunk 6 end\nsecond"};
    }
    return FakeEndpoint::Answer{"err unknown query"};
  });
  EXPECT_EQ(UdpQueryPaged(endpoint.address(), "util", 1000), "first second");
  EXPECT_EQ(UdpQueryPaged(endpoint.address(), "spans", 1000), std::nullopt);
}

}  // namespace
}  // namespace circus::rt
