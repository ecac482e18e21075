#include "perfbench/echo.h"

#include <string>

#include "src/common/check.h"
#include "src/net/world.h"
#include "src/sim/random.h"
#include "src/sim/syscall.h"

namespace perfbench {
namespace {

using circus::Bytes;
using circus::StatusOr;
using circus::core::ModuleNumber;
using circus::core::RpcProcess;
using circus::core::ServerCallContext;
using circus::core::ThreadId;
using circus::core::Troupe;
using circus::sim::Task;

constexpr size_t kPayloadPool = 64;

Task<void> EchoCaller(RpcProcess* client, const Troupe* troupe,
                      ModuleNumber module, const std::vector<Bytes>* payloads,
                      size_t first, size_t stride, Phase* phase) {
  const ThreadId thread = client->NewRootThread();
  for (size_t i = first; !phase->Expired(); i += stride) {
    const Bytes& args = (*payloads)[i % payloads->size()];
    const int64_t issued = phase->Issue();
    StatusOr<Bytes> reply =
        co_await client->Call(thread, *troupe, module, 0, args);
    if (!reply.ok()) {
      phase->Complete(issued, Outcome::kError);
    } else {
      phase->Complete(issued,
                      *reply == args ? Outcome::kVerified : Outcome::kMismatch);
    }
  }
  phase->CallerDone();
}

}  // namespace

EchoWorkload::EchoWorkload(const Testbed& bed, EchoShape shape,
                           uint64_t seed)
    : shape_(shape) {
  circus::sim::Rng rng(seed);
  for (size_t p = 0; p < kPayloadPool; ++p) {
    Bytes payload(shape.payload_bytes);
    for (uint8_t& b : payload) {
      b = static_cast<uint8_t>(rng.NextUint64());
    }
    payloads_.push_back(std::move(payload));
  }
  troupe_.id = circus::core::TroupeId{700 + static_cast<uint64_t>(shape.members)};
  for (int i = 0; i < shape.members; ++i) {
    circus::sim::Host* host = bed.add_host("member" + std::to_string(i));
    auto process = std::make_unique<RpcProcess>(bed.fabric, host, bed.port);
    module_ = process->ExportModule("echo");
    process->ExportProcedure(
        module_, 0,
        [](ServerCallContext&, const Bytes& args) -> Task<StatusOr<Bytes>> {
          co_return Bytes(args);
        });
    process->SetTroupeId(troupe_.id);
    troupe_.members.push_back(process->module_address(module_));
    members_.push_back(std::move(process));
  }
  client_ = std::make_unique<RpcProcess>(bed.fabric, bed.add_host("client"),
                                         bed.port);
}

EchoWorkload::~EchoWorkload() = default;

std::vector<RpcProcess*> EchoWorkload::processes() const {
  std::vector<RpcProcess*> all;
  for (const auto& m : members_) {
    all.push_back(m.get());
  }
  all.push_back(client_.get());
  return all;
}

void EchoWorkload::Start(Phase* phase) {
  for (int c = 0; c < shape_.callers; ++c) {
    phase->CallerStarted();
    client_->host()->Spawn(EchoCaller(client_.get(), &troupe_, module_,
                                      &payloads_, next_caller_++,
                                      static_cast<size_t>(shape_.callers),
                                      phase));
  }
}

double StackCpuUsPerOp(EchoShape shape, uint64_t seed, int64_t ops) {
  circus::net::World world(seed, circus::sim::SyscallCostModel::Free());
  circus::net::FaultPlan instant;
  instant.base_delay = circus::sim::Duration::Zero();
  world.network().set_default_fault_plan(instant);
  Testbed bed;
  bed.fabric = &world.network();
  bed.add_host = [&world](const std::string& name) {
    return world.AddHost(name);
  };
  bed.port = 9000;
  EchoWorkload workload(bed, shape, seed);

  auto run = [&](int64_t budget) {
    Phase phase(budget);
    workload.Start(&phase);
    for (int step = 0; !phase.Finished(); ++step) {
      CIRCUS_CHECK_MSG(step < 1000000, "simulated echo run did not finish");
      world.RunFor(circus::sim::Duration::Millis(10));
    }
    CIRCUS_CHECK_MSG(phase.verified() == budget,
                     "simulated echo run failed an op");
  };
  run(ops / 10);
  const CpuTimes before = ProcessCpu();
  run(ops);
  const CpuTimes after = ProcessCpu();
  return static_cast<double>((after.user_us + after.sys_us) -
                             (before.user_us + before.sys_us)) /
         static_cast<double>(ops);
}

}  // namespace perfbench
