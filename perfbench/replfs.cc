#include "perfbench/replfs.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "gen/apps/replfs.h"
#include "src/apps/replfs/client.h"
#include "src/apps/replfs/server.h"
#include "src/marshal/marshal.h"

namespace perfbench {
namespace {

namespace fs = circus::idl::ReplFs;

using circus::Bytes;
using circus::Status;
using circus::StatusOr;
using circus::apps::replfs::Client;
using circus::apps::replfs::Server;
using circus::apps::replfs::Session;
using circus::core::RpcProcess;
using circus::core::ThreadId;
using circus::sim::Task;

constexpr int kMembers = 3;
constexpr int kCallers = 4;
constexpr size_t kWordsPerBlock = 16;
constexpr int64_t kOpsPerCycle = 4;  // one transaction, three reads

using Timings = ReplFsWorkload::Timings;
using FileState = ReplFsWorkload::FileState;

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

fs::BlockData NextBlock(uint64_t seed, FileState* file) {
  uint64_t state = Mix(seed ^ Mix(file->next_fill++) ^
                       Mix(std::hash<std::string>{}(file->name)));
  fs::BlockData data(kWordsPerBlock);
  for (uint16_t& word : data) {
    state = Mix(state);
    word = static_cast<uint16_t>(state);
  }
  return data;
}

double UsSince(int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1000.0;
}

// One transaction attempt: open the thread's file, write block 0, close.
Task<Status> WriteBody(Timings* timings, const std::string* name,
                       const fs::BlockData* data, Session* session,
                       int64_t* body_ns) {
  ++timings->bodies;
  const int64_t t0 = NowNs();
  StatusOr<uint16_t> fd = co_await session->Open(*name);
  timings->open.Add(UsSince(t0));
  if (!fd.ok()) {
    *body_ns += NowNs() - t0;
    co_return fd.status();
  }
  const int64_t t1 = NowNs();
  fs::BlockData copy = *data;
  Status wrote = co_await session->Write(*fd, 0, std::move(copy));
  timings->write.Add(UsSince(t1));
  if (!wrote.ok()) {
    *body_ns += NowNs() - t0;
    co_return wrote;
  }
  const int64_t t2 = NowNs();
  Status closed = co_await session->Close(*fd);
  timings->close.Add(UsSince(t2));
  *body_ns += NowNs() - t0;
  co_return closed;
}

// Built outside any coroutine (see CLAUDE.md's capturing-lambda rule).
Client::Body MakeBody(Timings* timings, const std::string* name,
                      const fs::BlockData* data, int64_t* body_ns) {
  return [timings, name, data, body_ns](Session& session) {
    return WriteBody(timings, name, data, &session, body_ns);
  };
}

Task<void> ReplFsCaller(Client* client, RpcProcess* process, uint64_t seed,
                        FileState* file, Timings* timings, Phase* phase) {
  const ThreadId thread = process->NewRootThread();
  while (!phase->Expired()) {
    if (file->position++ % kOpsPerCycle == 0) {
      const fs::BlockData data = NextBlock(seed, file);
      int64_t body_ns = 0;
      const Client::Body body =
          MakeBody(timings, &file->name, &data, &body_ns);
      const int64_t issued = phase->Issue();
      const circus::apps::replfs::ClientOptions options;
      Status s = co_await client->Run(thread, body, options);
      if (s.ok()) {
        timings->commit.Add(
            static_cast<double>(NowNs() - issued - body_ns) / 1000.0);
        ++timings->txns;
        file->committed = data;
        phase->Complete(issued, Outcome::kVerified);
      } else {
        phase->Complete(issued, Outcome::kError);
      }
    } else {
      const int64_t issued = phase->Issue();
      StatusOr<fs::BlockData> read =
          co_await client->ReadBlock(thread, file->name, 0);
      timings->read.Add(UsSince(issued));
      if (!read.ok()) {
        phase->Complete(issued, Outcome::kError);
      } else {
        phase->Complete(issued, *read == file->committed
                                    ? Outcome::kVerified
                                    : Outcome::kMismatch);
      }
    }
  }
  phase->CallerDone();
}

double Median(const SampleBuffer& samples) {
  std::vector<double> v = samples.Values();
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

double P99(const SampleBuffer& samples) {
  std::vector<double> v = samples.Values();
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(0.99 * static_cast<double>(v.size() - 1))];
}

}  // namespace

ReplFsWorkload::ReplFsWorkload(const Testbed& bed, uint64_t seed,
                               size_t timing_capacity)
    : seed_(seed), timings_(timing_capacity) {
  circus::core::Troupe troupe;
  troupe.id = circus::core::TroupeId{900};
  for (int i = 0; i < kMembers; ++i) {
    circus::sim::Host* host = bed.add_host("fs" + std::to_string(i));
    auto process = std::make_unique<RpcProcess>(bed.fabric, host, bed.port);
    auto server = std::make_unique<Server>(process.get());
    process->SetTroupeId(troupe.id);
    troupe.members.push_back(
        process->module_address(server->module_number()));
    host->Spawn(server->DeliverLoop());
    members_.push_back(std::move(process));
    servers_.push_back(std::move(server));
  }
  client_process_ = std::make_unique<RpcProcess>(
      bed.fabric, bed.add_host("client"), bed.port);
  client_ = std::make_unique<Client>(client_process_.get());
  client_->Bind(troupe);
  for (int c = 0; c < kCallers; ++c) {
    FileState file;
    file.name = "file" + std::to_string(c);
    files_.push_back(std::move(file));
  }
}

ReplFsWorkload::~ReplFsWorkload() = default;

std::vector<RpcProcess*> ReplFsWorkload::processes() const {
  std::vector<RpcProcess*> all;
  for (const auto& m : members_) {
    all.push_back(m.get());
  }
  all.push_back(client_process_.get());
  return all;
}

void ReplFsWorkload::Start(Phase* phase) {
  for (FileState& file : files_) {
    phase->CallerStarted();
    client_process_->host()->Spawn(ReplFsCaller(client_.get(),
                                                client_process_.get(), seed_,
                                                &file, &timings_, phase));
  }
}

std::string ReplFsWorkload::FinalCheck() {
  const uint64_t committed = servers_[0]->committed_transactions();
  for (const auto& server : servers_) {
    if (server->committed_transactions() != committed) {
      return "members disagree on committed_transactions()";
    }
  }
  for (const FileState& file : files_) {
    if (file.committed.empty()) {
      continue;  // no transaction of this thread ever committed
    }
    for (const auto& server : servers_) {
      const std::optional<Bytes> raw = server->store().Peek(
          circus::apps::replfs::BlockKey(file.name, 0));
      if (!raw.has_value()) {
        return "a member lost block 0 of " + file.name;
      }
      circus::marshal::Reader reader(*raw);
      if (fs::Read_BlockData(reader) != file.committed) {
        return "a member's block 0 of " + file.name +
               " differs from the last committed write";
      }
    }
  }
  return "";
}

Bytes ReplFsWorkload::TypicalArguments() const {
  FileState file;
  file.name = "file0";
  fs::WriteBlockArgs args;
  args.fd = 1;
  args.seq = 1;
  args.data = NextBlock(seed_, &file);
  circus::marshal::Writer w;
  fs::Write_WriteBlockArgs(w, args);
  return w.Take();
}

void ReplFsWorkload::ResetLayerTimings() {
  timings_.open.Clear();
  timings_.write.Clear();
  timings_.close.Clear();
  timings_.read.Clear();
  timings_.commit.Clear();
  timings_.bodies = 0;
  timings_.txns = 0;
}

std::vector<LayerReading> ReplFsWorkload::LayerTimings() const {
  const double attempts =
      timings_.txns == 0 ? 0
                         : static_cast<double>(timings_.bodies) /
                               static_cast<double>(timings_.txns);
  return {
      {"apps.replfs.open_us", Median(timings_.open), "us"},
      {"apps.replfs.write_us", Median(timings_.write), "us"},
      {"apps.replfs.close_us", Median(timings_.close), "us"},
      {"apps.replfs.read_us", Median(timings_.read), "us"},
      {"txn.commit_us_p50", Median(timings_.commit), "us"},
      {"txn.commit_us_p99", P99(timings_.commit), "us"},
      {"txn.attempts_per_txn", attempts, "ratio"},
  };
}

}  // namespace perfbench
