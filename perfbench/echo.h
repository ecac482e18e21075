// The echo workloads: a troupe of `members` echo servers and one client
// process running `callers` closed-loop threads, each sending seeded
// payloads of `payload_bytes` and checking that the collated reply is
// byte-equal to its arguments.
#ifndef PERFBENCH_ECHO_H_
#define PERFBENCH_ECHO_H_

#include <memory>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {

struct EchoShape {
  int members = 1;
  int callers = 1;
  size_t payload_bytes = 16;
};

class EchoWorkload : public Workload {
 public:
  EchoWorkload(const Testbed& bed, EchoShape shape, uint64_t seed);
  ~EchoWorkload() override;

  std::vector<circus::core::RpcProcess*> processes() const override;
  void Start(Phase* phase) override;
  circus::Bytes TypicalArguments() const override { return payloads_[0]; }

 private:
  EchoShape shape_;
  std::vector<std::unique_ptr<circus::core::RpcProcess>> members_;
  std::unique_ptr<circus::core::RpcProcess> client_;
  circus::core::Troupe troupe_;
  circus::core::ModuleNumber module_ = 0;
  std::vector<circus::Bytes> payloads_;
  size_t next_caller_ = 0;
};

// Process CPU time (user + sys, from getrusage) per echo op of `shape`
// over net::World with the zero-cost syscall model and no network
// delay: the protocol stack alone, without rt and the kernel. Runs
// `ops` ops after a warm-up.
double StackCpuUsPerOp(EchoShape shape, uint64_t seed, int64_t ops);

}  // namespace perfbench

#endif  // PERFBENCH_ECHO_H_
