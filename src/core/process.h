// RpcProcess: one Circus process — the unit that exports modules, makes
// and handles replicated procedure calls, and carries distributed threads
// across machines. The replicated call algorithms of Section 4.3 live
// here:
//
//  * one-to-many (client half): the same call message goes to every
//    server troupe member; a collator reduces the replies;
//  * many-to-one (server half): call messages from all members of the
//    client troupe are collected, the procedure is executed exactly once,
//    and the return message goes to every member heard from (late members
//    get the buffered result immediately, Section 4.3.4);
//  * many-to-many is the composition of the two — no further algorithm is
//    needed (Section 4.3.3), and troupe members never communicate among
//    themselves.
//
// Thread IDs propagate per Section 3.4.1: every call message carries the
// caller's thread ID and the server process adopts it for the duration of
// the execution, so nested calls carry it onward.
#ifndef SRC_CORE_PROCESS_H_
#define SRC_CORE_PROCESS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/core/collator.h"
#include "src/core/types.h"
#include "src/core/wire.h"
#include "src/msg/paired_endpoint.h"
#include "src/net/socket.h"
#include "src/obs/bus.h"
#include "src/obs/metrics.h"
#include "src/sim/channel.h"
#include "src/sim/task.h"

namespace circus::core {

class RpcProcess;

// Context passed to every server-side procedure handler.
struct ServerCallContext {
  RpcProcess* process = nullptr;
  // The caller's thread, adopted for the execution (Section 3.4.1).
  ThreadId thread;
  uint32_t thread_seq = 0;
  TroupeId client_troupe;
  // The call messages collected for this many-to-one call: one argument
  // buffer per client troupe member heard from, moved here from the
  // decoded call messages. Handlers that use explicit replication
  // (Section 7.4) may iterate these; transparent handlers just use their
  // `args` parameter, a reference to the collated buffer among these.
  std::vector<std::pair<net::NetAddress, circus::Bytes>> collected_arguments;

  // Makes a nested replicated call on the same logical thread.
  sim::Task<circus::StatusOr<circus::Bytes>> Call(const Troupe& server,
                                                  ModuleNumber module,
                                                  ProcedureNumber procedure,
                                                  circus::Bytes args);
};

using ProcedureHandler = std::function<sim::Task<circus::StatusOr<circus::Bytes>>(
    ServerCallContext&, const circus::Bytes&)>;

// Reserved procedures of the runtime module (kRuntimeModule), present in
// every process; produced "automatically" the way the stub compiler
// emits set_troupe_id and get_state (Sections 6.2, 6.4.1).
enum RuntimeProcedure : ProcedureNumber {
  kSetTroupeId = 0,  // args: u64 troupe id; empty result
  kPing = 1,         // the null "are you there?" call (Section 6.1)
  kGetState = 2,     // args: u16 module number; result: externalized state
};

struct CallOptions {
  // Collation of server replies; unset means the process default.
  std::optional<Collation> collation;
  // Custom collator (explicit replication, Section 7.4); overrides
  // `collation` when set.
  Collator custom_collator;
  // When set, the call message is multicast once to this group instead
  // of sent point-to-point to each member (Section 4.3.7); silent
  // members fall back to reliable unicast.
  std::optional<net::HostAddress> multicast_group;
  // Marks the call as coming from an unreplicated client even if this
  // process belongs to a troupe. Used for runtime-internal traffic (e.g.
  // a server resolving a client troupe ID through the binding agent)
  // that is made independently by each member rather than replicated
  // deterministically, so the server must not wait for the rest of the
  // troupe's copies.
  bool as_unreplicated_client = false;
  // The watchdog scheme (Section 4.3.4): computation proceeds with the
  // first successful reply, but a background watchdog keeps collecting
  // the remaining replies and compares them with the first; when the
  // set is complete it reports Ok (all agreed) or kDisagreement through
  // this callback, so the application can abort the surrounding
  // transaction. Crashed members do not count as disagreement. When set,
  // `collation`/`custom_collator` are ignored.
  std::function<void(const circus::Status&)> watchdog;
  // When > 0, requires at least this many identical successful replies
  // (unanimous-with-quorum); a majority of the expected set prevents
  // divergence across network partitions (Section 4.3.5). Ignored when
  // a custom collator or watchdog is given.
  int minimum_successes = 0;
};

struct RpcOptions {
  msg::EndpointOptions endpoint;
  Collation default_collation = Collation::kUnanimous;
  // How arguments of a many-to-one call are collated (Section 4.3.4):
  // kUnanimous waits for all available client members and demands
  // identical arguments; kFirstCome proceeds with the first message.
  Collation argument_collation = Collation::kUnanimous;
  // When false with kUnanimous collation, the server still waits for all
  // available client members' call messages but skips the equality
  // check: the handler collates ctx.collected_arguments itself — the
  // server-side argument generator of Section 7.4 (Figure 7.7's
  // temperature averaging).
  bool argument_unanimity_check = true;
  // How long the server waits for the remaining client members' call
  // messages before presuming the stragglers crashed.
  sim::Duration straggler_timeout = sim::Duration::Seconds(3);
  // Optimistic wait before the multicast fallback resends unicast.
  sim::Duration multicast_fallback = sim::Duration::Seconds(1);
  // User-mode CPU model for stubs and protocol bookkeeping (drives the
  // user-time column of Table 4.1). Zero by default; the perf benches
  // set Berkeley-flavoured values.
  sim::Duration client_user_cost_base;
  sim::Duration client_user_cost_per_member;
  sim::Duration server_user_cost;
  // How long a finished many-to-one call is retained so that late client
  // members still receive the buffered result.
  sim::Duration inbound_retention = sim::Duration::Seconds(60);
  // Planted bug for the wire auditor's negative self-test (chaos
  // duplicate_delivery_bug): when a duplicate call message reaches a
  // peer we already replied to, re-send the buffered return mangled —
  // reusing the message's call number with different payload bytes,
  // which a correct Section 4.2 implementation never does.
  bool redeliver_duplicates_bug = false;
};

class RpcProcess {
 public:
  // Resolves a client troupe ID to its membership; wired up by the
  // binding layer (a local cache backed by the Ringmaster,
  // Section 4.3.2).
  using TroupeResolver =
      std::function<sim::Task<circus::StatusOr<Troupe>>(TroupeId)>;

  RpcProcess(net::Fabric* fabric, sim::Host* host, net::Port port,
             RpcOptions options = {});
  RpcProcess(const RpcProcess&) = delete;
  RpcProcess& operator=(const RpcProcess&) = delete;
  ~RpcProcess();

  sim::Host* host() const { return host_; }
  net::NetAddress process_address() const { return socket_->local_address(); }
  ModuleAddress module_address(ModuleNumber m) const {
    return ModuleAddress{process_address(), m};
  }
  const RpcOptions& options() const { return options_; }
  msg::PairedEndpoint& endpoint() { return *endpoint_; }

  // ------------------------------------------------------ server role --
  // Registers an interface and returns its module number (the index into
  // the table of exported interfaces, Section 4.3).
  ModuleNumber ExportModule(const std::string& interface_name);
  void ExportProcedure(ModuleNumber module, ProcedureNumber procedure,
                       ProcedureHandler handler);
  // get_state support (Section 6.4.1): provider externalizes the module
  // state; acceptor internalizes it on a fresh member.
  void SetStateProvider(ModuleNumber module,
                        std::function<circus::Bytes()> provider);
  std::optional<ModuleNumber> FindModule(const std::string& name) const;

  void SetTroupeId(TroupeId id) { troupe_id_ = id; }
  TroupeId troupe_id() const { return troupe_id_; }

  void SetClientTroupeResolver(TroupeResolver resolver) {
    troupe_resolver_ = std::move(resolver);
  }

  // Joins the hardware multicast group a troupe uses (Section 4.3.7).
  void JoinMulticastGroup(net::HostAddress group) {
    socket_->JoinGroup(group);
  }

  // The World's observability hub, reached through the network (null
  // outside a World). Layers built on top of RpcProcess (binding, txn)
  // publish their protocol events here.
  obs::EventBus* event_bus() const { return fabric_->event_bus(); }
  obs::MetricsRegistry* metrics() const { return fabric_->metrics(); }

  // ------------------------------------------------------ client role --
  // Creates a fresh logical thread rooted at this (base) process.
  ThreadId NewRootThread();

  // The replicated procedure call: exactly-once execution at every
  // member of `server`, one collated result back.
  sim::Task<circus::StatusOr<circus::Bytes>> Call(ThreadId thread,
                                                  const Troupe& server,
                                                  ModuleNumber module,
                                                  ProcedureNumber procedure,
                                                  circus::Bytes args,
                                                  CallOptions opts = {});

  // ------------------------------------------------------ diagnostics --
  struct Stats {
    uint64_t calls_made = 0;
    uint64_t calls_executed = 0;           // procedures actually run
    uint64_t call_messages_received = 0;   // incl. extra replicas' copies
    uint64_t stale_bindings_rejected = 0;
    uint64_t argument_disagreements = 0;
    uint64_t late_members_served = 0;      // buffered result re-sent
  };
  const Stats& stats() const { return stats_; }

 private:
  struct InboundKey {
    TroupeId client_troupe;
    ThreadId thread;
    uint32_t thread_seq;
    auto operator<=>(const InboundKey&) const = default;
  };
  struct InboundCall {
    explicit InboundCall(sim::Host* host) : arrivals(host) {}
    // peer process -> (paired-message call number, arguments). The
    // arguments move on to the handler's context once the call runs.
    std::map<net::NetAddress, std::pair<uint32_t, circus::Bytes>> received;
    std::set<net::NetAddress> replied_to;
    // The encoded ReturnBody once the call has run (null before): one
    // buffer that every member's return message, late ones included,
    // sends from.
    std::shared_ptr<const circus::Bytes> return_payload;
    sim::Channel<int> arrivals;
  };

  uint32_t NextThreadSeq(const ThreadId& thread);
  uint32_t NextMessageCallNumber() { return next_msg_call_++; }

  sim::Task<void> DispatchLoop();
  sim::Task<void> HandleInbound(InboundKey key,
                                std::shared_ptr<InboundCall> call,
                                CallBody first_body);
  sim::Task<void> SendReturnTo(net::NetAddress peer, uint32_t msg_call_number,
                               std::shared_ptr<const circus::Bytes> payload);
  // The encoded call message is shared by every member's send.
  sim::Task<void> CallOneMember(ModuleAddress member, uint32_t msg_call,
                                std::shared_ptr<const circus::Bytes> encoded,
                                std::shared_ptr<internal::ReplyStreamState>
                                    stream_state);
  sim::Task<void> AwaitMulticastReply(
      ModuleAddress member, uint32_t msg_call,
      std::shared_ptr<const circus::Bytes> encoded,
      std::shared_ptr<internal::ReplyStreamState> stream_state);
  // Consumes the replies a first-come collation left behind and reports
  // agreement or disagreement through `report` (Section 4.3.4).
  sim::Task<void> WatchdogTask(
      ReplyStream stream, circus::Bytes first_value, bool have_first,
      std::function<void(const circus::Status&)> report);
  void InstallRuntimeModule();
  // Arms retire_event_ for the oldest entry of retiring_; when it fires
  // it erases every expired inbound record and re-arms for the next.
  void ArmRetirement();

  // Publishes a call-level event (issue/collate/execute) to the World's
  // bus; no-op when nobody subscribed. `payload` carries the marshalled
  // arguments or result, so a model::BusRecorderTap rebuilds the
  // process's per-thread execution history (Sections 3.3 and 3.5.2)
  // from these events alone.
  void PublishCallEvent(obs::EventKind kind, const ThreadId& thread,
                        uint32_t thread_seq, uint64_t module,
                        uint64_t procedure, const circus::Bytes* payload,
                        uint64_t c);
  // The same for an outcome (kCallCollate, kExecuteEnd): the payload is
  // the result, or "!" and the status text for an error (so divergent
  // failures are visible), and `c` is 1 for success. The payload is
  // built only when somebody subscribed.
  void PublishOutcomeEvent(obs::EventKind kind, const ThreadId& thread,
                           uint32_t thread_seq, uint64_t module,
                           uint64_t procedure,
                           const circus::StatusOr<circus::Bytes>& outcome);

  net::Fabric* fabric_;
  sim::Host* host_;
  obs::EventBus* bus_ = nullptr;  // cached from the network at construction
  obs::Histogram* collator_wait_metric_ = nullptr;
  RpcOptions options_;
  std::unique_ptr<net::DatagramSocket> socket_;
  std::unique_ptr<msg::PairedEndpoint> endpoint_;
  TroupeId troupe_id_;
  TroupeResolver troupe_resolver_;

  struct Module {
    std::string name;
    std::map<ProcedureNumber, ProcedureHandler> procedures;
    std::function<circus::Bytes()> state_provider;
  };
  std::vector<Module> modules_;
  std::map<ProcedureNumber, ProcedureHandler> runtime_procedures_;

  std::map<InboundKey, std::shared_ptr<InboundCall>> inbound_;
  // Finished calls awaiting retirement from inbound_, oldest first, as
  // (expiry, key). The retention window is constant, so expiry order is
  // completion order and one armed event (retire_event_, 0 when none)
  // serves them all.
  std::deque<std::pair<sim::TimePoint, InboundKey>> retiring_;
  uint64_t retire_event_ = 0;
  std::map<ThreadId, uint32_t> thread_seq_;
  uint32_t next_msg_call_ = 1;
  uint16_t next_local_thread_ = 1;
  Stats stats_;
};

}  // namespace circus::core

#endif  // SRC_CORE_PROCESS_H_
