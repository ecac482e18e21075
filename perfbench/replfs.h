// The replfs workload: a replfs troupe of three members and one client
// process running four closed-loop threads, each on its own file. A
// thread's cycle is one write transaction (open, write one 16-word
// block, close, troupe commit) followed by three unanimous ReadBlocks,
// each checked against the block the thread last committed.
#ifndef PERFBENCH_REPLFS_H_
#define PERFBENCH_REPLFS_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace circus::apps::replfs {
class Client;
class Server;
}  // namespace circus::apps::replfs

namespace perfbench {

class ReplFsWorkload : public Workload {
 public:
  // Keeps up to `timing_capacity` samples per application timing.
  ReplFsWorkload(const Testbed& bed, uint64_t seed, size_t timing_capacity);
  ~ReplFsWorkload() override;

  std::vector<circus::core::RpcProcess*> processes() const override;
  void Start(Phase* phase) override;
  std::string FinalCheck() override;
  circus::Bytes TypicalArguments() const override;
  void ResetLayerTimings() override;
  std::vector<LayerReading> LayerTimings() const override;

  // Application-layer timings, microseconds.
  struct Timings {
    explicit Timings(size_t capacity)
        : open(capacity), write(capacity), close(capacity), read(capacity),
          commit(capacity) {}
    SampleBuffer open;
    SampleBuffer write;
    SampleBuffer close;
    SampleBuffer read;
    SampleBuffer commit;  // Client::Run minus its body
    int64_t bodies = 0;   // transaction attempts
    int64_t txns = 0;     // committed transactions
  };
  // One client thread's file and the block it last committed.
  struct FileState {
    std::string name;
    std::vector<uint16_t> committed;
    uint64_t next_fill = 0;
    int64_t position = 0;  // ops done; every fourth is a transaction
  };

 private:
  std::vector<std::unique_ptr<circus::core::RpcProcess>> members_;
  std::vector<std::unique_ptr<circus::apps::replfs::Server>> servers_;
  std::unique_ptr<circus::core::RpcProcess> client_process_;
  std::unique_ptr<circus::apps::replfs::Client> client_;
  uint64_t seed_ = 0;
  std::vector<FileState> files_;
  Timings timings_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLFS_H_
