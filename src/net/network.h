// The simulated internet. Packets are unreliably delivered: they may be
// lost, delayed, or duplicated (Section 2.2); checksums turn garbled
// packets into lost ones, so garbling is folded into the loss probability.
// The network also models partitions (Section 4.3.5) and true multicast
// delivery (Section 4.3.7). It is one implementation of the net::Fabric
// seam; rt::UdpFabric is the other.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/net/address.h"
#include "src/net/fabric.h"
#include "src/sim/host.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace circus::net {

// Loss/duplication/latency characteristics of a path. The defaults model
// the paper's lightly loaded 10 Mb/s Ethernet: sub-millisecond delivery,
// no loss.
struct FaultPlan {
  double loss_probability = 0.0;
  double duplicate_probability = 0.0;
  sim::Duration base_delay = sim::Duration::Micros(500);
  // Exponential jitter added on top of base_delay (mean; zero disables).
  sim::Duration mean_extra_delay = sim::Duration::Zero();

  static FaultPlan PerfectLan() { return FaultPlan{}; }
  static FaultPlan Lossy(double loss) {
    FaultPlan p;
    p.loss_probability = loss;
    return p;
  }
};

struct NetworkStats {
  uint64_t packets_sent = 0;       // send operations (multicast counts 1)
  uint64_t packets_delivered = 0;  // per-recipient deliveries
  uint64_t bytes_sent = 0;         // payload bytes entering the wire
  uint64_t packets_lost = 0;
  uint64_t packets_duplicated = 0;
  uint64_t packets_blocked_by_partition = 0;
};

class Network : public Fabric {
 public:
  // The simulated Ethernet's MTU. Every segment size, packet count and
  // byte count in the reproduced tables follows from it.
  static constexpr size_t kMaxDatagramBytes = 1500;

  Network(sim::Executor* executor, sim::Rng rng)
      : executor_(executor), rng_(std::move(rng)) {}

  // --- Topology ---
  // Gives `host` its (single) network address. Must be called before any
  // socket is opened on the host.
  void AttachHost(sim::Host* host, HostAddress address);
  HostAddress AddressOfHost(sim::Host::HostId id) const override;
  size_t MaxDatagramBytes(sim::Host::HostId) const override {
    return kMaxDatagramBytes;
  }

  // --- Fault injection ---
  void set_default_fault_plan(const FaultPlan& plan) {
    default_plan_ = plan;
  }
  const FaultPlan& default_fault_plan() const { return default_plan_; }
  // Overrides the plan for packets from `src_host` to `dst_host`.
  void SetPairFaultPlan(sim::Host::HostId src_host,
                        sim::Host::HostId dst_host, const FaultPlan& plan);
  void ClearPairFaultPlans() { pair_plans_.clear(); }

  // --- Partitions ---
  // Splits the network: hosts in `island` can only talk among themselves;
  // everyone else forms the other side. Layered calls refine further.
  void Partition(const std::vector<sim::Host::HostId>& island);
  void HealPartitions();
  bool Connected(sim::Host::HostId a, sim::Host::HostId b) const;

  // --- Observation ---
  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }
  // Datagrams sitting in bound sockets' receive queues, network-wide —
  // the recv-backlog side of the utilization telemetry.
  size_t TotalReceiveBacklog() const;

 protected:
  circus::StatusOr<NetAddress> Bind(DatagramSocket* socket,
                                    Port port) override;
  void Unbind(DatagramSocket* socket) override;
  // Entry point used by DatagramSocket::Send.
  void Transmit(sim::Host* sender, Datagram datagram) override;
  void JoinGroup(HostAddress group, DatagramSocket* socket) override;
  void LeaveGroup(HostAddress group, DatagramSocket* socket) override;

 private:
  circus::StatusOr<Port> AllocateEphemeralPort(HostAddress host);
  void DeliverUnicast(sim::Host::HostId src_host, Datagram datagram);
  void DeliverTo(DatagramSocket* socket, const Datagram& datagram,
                 const FaultPlan& plan);
  const FaultPlan& PlanFor(sim::Host::HostId src,
                           sim::Host::HostId dst) const;

  sim::Executor* executor_;
  sim::Rng rng_;
  FaultPlan default_plan_;
  std::map<std::pair<sim::Host::HostId, sim::Host::HostId>, FaultPlan>
      pair_plans_;
  // partition_[h] identifies the island h lives on (default island 0).
  std::unordered_map<sim::Host::HostId, uint32_t> partition_;
  uint32_t next_island_ = 1;
  std::unordered_map<sim::Host::HostId, HostAddress> host_address_;
  std::unordered_map<HostAddress, sim::Host::HostId> address_host_;
  Port next_ephemeral_port_ = 0;  // 0: start of configured range
  std::unordered_map<NetAddress, DatagramSocket*, NetAddressHash> sockets_;
  std::map<HostAddress, std::set<DatagramSocket*>> groups_;
  NetworkStats stats_;
};

}  // namespace circus::net

#endif  // SRC_NET_NETWORK_H_
