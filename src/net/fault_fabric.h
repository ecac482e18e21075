// Fault injection at the Fabric seam. A FaultFabric wraps any inner
// Fabric — the simulated Network or the real-time rt::UdpFabric — and
// applies a seeded plan of drops, duplications, delays, reorderings, and
// bidirectional partitions to every datagram transmitted through it.
// Sockets are constructed on the decorator; Bind/Unbind/JoinGroup pass
// straight through, so the inner fabric owns all addressing and delivery
// (and all observability: its bus sees one kPacketSend per send,
// pre-fault, and one kPacketDeliver per copy actually delivered).
//
// Determinism: every injection decision is drawn from one sim::Rng in
// transmit order — drop, then duplicate, then reorder, then jitter — so
// two fabrics seeded identically and fed the same sequence of sends make
// byte-identical decisions whether the inner fabric is simulated or real.
// That is the property the sim/rt parity test pins down.
#ifndef SRC_NET_FAULT_FABRIC_H_
#define SRC_NET_FAULT_FABRIC_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/net/address.h"
#include "src/net/fabric.h"
#include "src/sim/executor.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace circus::net {

// The injection knobs, applied independently to every transmitted
// datagram (after the partition check, which is absolute).
struct FaultInjectionPlan {
  double drop = 0.0;       // P(datagram is lost)
  double duplicate = 0.0;  // P(a second copy is sent)
  double reorder = 0.0;    // P(datagram is held back past its successor)
  sim::Duration delay;     // fixed extra delay on every copy
  sim::Duration jitter;    // exponential extra delay (mean; zero off)

  bool active() const {
    return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
           delay > sim::Duration::Zero() || jitter > sim::Duration::Zero();
  }
};

struct FaultFabricStats {
  uint64_t transmitted = 0;  // sends entering the decorator
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t delayed = 0;    // copies forwarded with nonzero delay
  uint64_t reordered = 0;  // datagrams held back
  uint64_t blocked_by_partition = 0;
};

class FaultFabric : public Fabric {
 public:
  // `inner` carries the datagrams; `executor` schedules delayed copies
  // (in rt this is the runtime executor whose virtual clock is wall
  // time). Both must outlive the decorator.
  FaultFabric(Fabric* inner, sim::Executor* executor, uint64_t seed);
  ~FaultFabric() override;

  HostAddress AddressOfHost(sim::Host::HostId id) const override;
  size_t MaxDatagramBytes(sim::Host::HostId id) const override {
    return inner_->MaxDatagramBytes(id);
  }

  Fabric* inner() const { return inner_; }

  // --- The plan ---
  void set_plan(const FaultInjectionPlan& plan) { plan_ = plan; }
  const FaultInjectionPlan& plan() const { return plan_; }

  // Restarts the decision stream. Same seed + same send sequence =>
  // same decisions.
  void Reseed(uint64_t seed);
  uint64_t seed() const { return seed_; }

  // --- Partitions ---
  // Installs a bidirectional partition: a datagram is blocked when
  // exactly one of {source, destination} is in `island`. Multicast
  // destinations cannot be membership-checked at this seam, so they
  // count as outside the island: an island member's multicast sends are
  // blocked, while multicasts originated outside still reach it — in the
  // live testbed the nemesis installs the same island on every node, so
  // unicast traffic (all of the RPC path) is cut symmetrically.
  void PartitionEndpoints(std::vector<NetAddress> island);
  void Heal();
  bool partitioned() const { return !island_.empty(); }
  // True when the installed partition blocks unicast traffic between
  // `a` and `b` (either direction). The introspect health reply uses
  // this to label peers `partitioned` rather than merely silent.
  bool PathBlocked(const NetAddress& a, const NetAddress& b) const {
    if (island_.empty()) {
      return false;
    }
    return (island_.count(a) > 0) != (island_.count(b) > 0);
  }

  // --- Control protocol ---
  // One-line text commands, the wire format of the faults_port control
  // endpoint (mirroring the introspect protocol):
  //   status                      -> one-line settings + counters
  //   seed N | loss P | dup P | reorder P | delay_ms F | jitter_ms F
  //   partition ADDR...           ADDR = "a.b.c.d:port" or bare "port"
  //                               (bare ports mean 127.0.0.1)
  //   heal                        -> lift all partitions
  //   clear                       -> reset the plan and heal
  // Returns the reply text ("ok" for setters) or kInvalidArgument.
  circus::StatusOr<std::string> ApplyCommand(std::string_view command);
  std::string StatusLine() const;

  const FaultFabricStats& stats() const { return stats_; }

  // Test hook: when set, every transmit appends one decision record
  // ("fwd delay=0us", "drop", "dup delay=137us", "hold", "pdrop").
  void set_decision_log(std::vector<std::string>* log) {
    decision_log_ = log;
  }

  // "a.b.c.d:port", or a bare port meaning 127.0.0.1. Exposed for the
  // fault-control endpoint and the nemesis, which share the format.
  static std::optional<NetAddress> ParseEndpoint(std::string_view text);

 protected:
  circus::StatusOr<NetAddress> Bind(DatagramSocket* socket,
                                    Port port) override;
  void Unbind(DatagramSocket* socket) override;
  void Transmit(sim::Host* sender, Datagram datagram) override;
  void JoinGroup(HostAddress group, DatagramSocket* socket) override;
  void LeaveGroup(HostAddress group, DatagramSocket* socket) override;

 private:
  struct HeldDatagram {
    sim::Host* sender;
    Datagram datagram;
    sim::Duration delay;
  };

  bool PartitionBlocks(const Datagram& d) const;
  // Forwards one copy into the inner fabric, now or after `delay`.
  void Forward(sim::Host* sender, const Datagram& d, sim::Duration delay);
  // The actual re-injection: suppresses the inner fabric's send-side
  // observation (the decorator observed the original send already).
  void SendThrough(sim::Host* sender, Datagram d);
  void FlushHeld();

  Fabric* inner_;
  sim::Executor* executor_;
  uint64_t seed_;
  sim::Rng rng_;
  FaultInjectionPlan plan_;
  std::set<NetAddress> island_;
  std::optional<HeldDatagram> held_;
  uint64_t held_flush_event_ = 0;
  // Delayed-copy events still pending, cancelled on destruction so no
  // callback outlives the decorator.
  std::unordered_set<uint64_t> pending_events_;
  FaultFabricStats stats_;
  std::vector<std::string>* decision_log_ = nullptr;
};

}  // namespace circus::net

#endif  // SRC_NET_FAULT_FABRIC_H_
