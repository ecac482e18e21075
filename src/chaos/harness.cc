#include "src/chaos/harness.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "src/binding/client.h"
#include "src/binding/deploy.h"
#include "src/binding/reconfigurer.h"
#include "src/chaos/invariants.h"
#include "src/chaos/nemesis.h"
#include "src/common/check.h"
#include "src/config/parser.h"
#include "src/core/collator.h"
#include "src/core/process.h"
#include "src/marshal/marshal.h"
#include "src/model/bus_tap.h"
#include "src/net/world.h"
#include "src/obs/bus.h"
#include "src/obs/export.h"
#include "src/obs/wire.h"
#include "src/txn/commit.h"

namespace circus::chaos {
namespace {

using binding::BindingCache;
using binding::BindingClient;
using binding::ReconfigReport;
using binding::Reconfigurer;
using core::CallOptions;
using core::ModuleNumber;
using core::ProcedureNumber;
using core::RpcProcess;
using core::ServerCallContext;
using core::ThreadId;
using core::Troupe;
using sim::Duration;
using sim::Task;

constexpr const char* kTroupeName = "chaos";
constexpr ProcedureNumber kCounterProc = 10;
constexpr ProcedureNumber kTxnAddProc = 11;

// What the majority collator learned from the last call, shared between
// the collator closure and the client loop that acts on it.
struct CollatorScratch {
  int quorum = 2;
  bool mangle = false;  // the planted broken-collator bug
  // True when a quorum of members replied Ok but no value reached the
  // quorum: the troupe itself is split.
  bool disagreement = false;
  // Process addresses of members whose Ok reply fell outside the
  // accepted (or, on a split, the kept) value class.
  std::vector<net::NetAddress> divergent;
};

struct MemberRec {
  int serial = 0;
  sim::Host* host = nullptr;
  std::unique_ptr<model::TraceRecorder> recorder;
  std::unique_ptr<RpcProcess> process;
  std::unique_ptr<txn::TransactionalServer> server;
  ModuleNumber module = 0;
  int64_t counter = 0;
};

struct Harness {
  // Declaration order is destruction-order-critical: the World must be
  // declared first so it is destroyed last (its destructor crashes the
  // hosts and drains every protocol coroutine before anything they
  // reference goes away).
  net::World world;
  HarnessOptions opts;
  InvariantMonitor monitor;
  // Both observers live on the World's event bus: the tap rebuilds the
  // members' determinism-check recorders from call events, and the
  // monitor's packet check subscribes to kPacketSend (below).
  model::BusRecorderTap tap;
  obs::EventBus::SubscriberId monitor_sub = 0;
  // The wire oracle (opts.audit_wire): audits every packet event of the
  // run as it is published.
  std::unique_ptr<obs::wire::WireAuditor> wire;

  binding::RingmasterDeployment ring;
  config::MachineDatabase database;
  std::map<config::MachineId, sim::Host*> machine_host;

  sim::Host* agent_host = nullptr;
  std::unique_ptr<RpcProcess> agent_process;
  std::unique_ptr<BindingClient> agent_binding;
  std::unique_ptr<Reconfigurer> reconfigurer;

  std::vector<std::unique_ptr<MemberRec>> members;
  std::map<net::NetAddress, MemberRec*> member_of_address;
  std::vector<net::NetAddress> current_members;  // last registry lookup
  ModuleNumber module_number = 0;

  sim::Host* client_host = nullptr;
  std::unique_ptr<RpcProcess> client_process;
  std::unique_ptr<BindingClient> client_binding;
  std::unique_ptr<BindingCache> client_cache;
  std::unique_ptr<txn::CommitCoordinator> coordinator;
  std::shared_ptr<CollatorScratch> scratch;
  CallOptions call_opts;  // majority collation, reused for every call

  sim::Host* nemesis_host = nullptr;
  net::FaultPlan baseline;
  std::unique_ptr<Nemesis> nemesis;

  // Two-strike bookkeeping of the sweep-time state-agreement check.
  std::set<net::NetAddress> state_suspects;

  int calls_accepted = 0;
  int calls_failed = 0;
  int txns_ok = 0;
  int txns_failed = 0;
  int members_launched = 0;
  int suspects_killed = 0;
  bool stop_workload = false;
  bool final_checks_done = false;

  explicit Harness(const HarnessOptions& options);
  ~Harness();
};

// ---------------------------------------------------------------------
// Majority collation (Section 4.3.5 via the Section 7.4 escape hatch).

Task<StatusOr<Bytes>> MajorityCollate(
    core::ReplyStream& stream, std::shared_ptr<CollatorScratch> scratch) {
  scratch->disagreement = false;
  scratch->divergent.clear();
  std::vector<core::Reply> oks;
  std::optional<Status> stale;
  std::optional<Status> failure;
  for (;;) {
    std::optional<core::Reply> reply = co_await stream.Next();
    if (!reply.has_value()) {
      break;
    }
    if (reply->result.ok()) {
      oks.push_back(*reply);
    } else if (reply->result.status().code() == ErrorCode::kStaleBinding) {
      stale = reply->result.status();
    } else {
      failure = reply->result.status();
    }
  }
  const int quorum = scratch->quorum;

  // Group identical reply values; std::map keeps the grouping (and with
  // it every downstream decision) deterministic.
  std::map<Bytes, std::vector<net::NetAddress>> classes;
  for (const core::Reply& r : oks) {
    classes[*r.result].push_back(r.member.process);
  }
  const Bytes* winner = nullptr;
  size_t winner_size = 0;
  for (const auto& [value, who] : classes) {
    if (who.size() > winner_size) {
      winner = &value;
      winner_size = who.size();
    }
  }

  if (winner != nullptr && static_cast<int>(winner_size) >= quorum) {
    for (const auto& [value, who] : classes) {
      if (&value == winner) {
        continue;
      }
      for (const net::NetAddress& a : who) {
        scratch->divergent.push_back(a);
      }
    }
    Bytes result = *winner;
    if (scratch->mangle && !result.empty()) {
      result[0] ^= 0x5a;  // accept a value no member computed
    }
    co_return result;
  }

  if (static_cast<int>(oks.size()) >= quorum) {
    // Enough members answered, but they answered differently: the
    // troupe is split with no majority side. Keep the class containing
    // the lowest member address (a deterministic tie-break for the
    // repair path) and report everyone else as divergent.
    scratch->disagreement = true;
    const std::vector<net::NetAddress>* keep = nullptr;
    net::NetAddress keep_low;
    for (const auto& [value, who] : classes) {
      net::NetAddress low = *std::min_element(who.begin(), who.end());
      if (keep == nullptr || low < keep_low) {
        keep = &who;
        keep_low = low;
      }
    }
    for (const auto& [value, who] : classes) {
      if (&who == keep) {
        continue;
      }
      for (const net::NetAddress& a : who) {
        scratch->divergent.push_back(a);
      }
    }
    co_return Status(ErrorCode::kNoMajority, "replies split " +
                                                 std::to_string(oks.size()) +
                                                 " ways, no quorum value");
  }
  if (stale.has_value()) {
    co_return *stale;
  }
  if (failure.has_value()) {
    co_return *failure;
  }
  co_return Status(ErrorCode::kUnavailable, "quorum unreachable");
}

// Non-coroutine factory (contributor notes, hard rule 1): builds the
// std::function outside any co_await statement.
core::Collator MakeMajorityCollator(std::shared_ptr<CollatorScratch> s) {
  return [s](core::ReplyStream& stream) { return MajorityCollate(stream, s); };
}

// ---------------------------------------------------------------------
// Member module.

void InstallMemberProcedures(Harness* h, MemberRec* m) {
  m->server->ExportProcedure(
      kCounterProc,
      [h, m](ServerCallContext& ctx, const Bytes&) -> Task<StatusOr<Bytes>> {
        int64_t value = ++m->counter;
        if (h->opts.nondeterministic_member && m->serial == 1) {
          value += 1000000;  // the planted determinism bug
        }
        marshal::Writer w;
        w.WriteI64(value);
        Bytes out = w.Take();
        h->monitor.NoteExecution(m->serial, ctx.thread, ctx.thread_seq, out);
        co_return out;
      });
  m->server->ExportProcedure(
      kTxnAddProc,
      [m](ServerCallContext&, const Bytes& args) -> Task<StatusOr<Bytes>> {
        marshal::Reader r(args);
        const txn::TxnId txn = txn::TxnId::Read(r);
        const std::string key = r.ReadString();
        const int64_t delta = r.ReadI64();
        if (!r.AtEnd()) {
          co_return Status(ErrorCode::kProtocolError, "bad add args");
        }
        m->server->store().Begin(txn);
        int64_t current = 0;
        StatusOr<Bytes> existing = co_await m->server->store().Get(txn, key);
        if (existing.ok()) {
          marshal::Reader vr(*existing);
          current = vr.ReadI64();
        } else if (existing.status().code() != ErrorCode::kNotFound) {
          co_return existing.status();
        }
        marshal::Writer w;
        w.WriteI64(current + delta);
        Status put = co_await m->server->store().Put(txn, key, w.Take());
        if (!put.ok()) {
          co_return put;
        }
        marshal::Writer out;
        out.WriteI64(current + delta);
        co_return out.Take();
      });
}

StatusOr<Reconfigurer::LaunchedMember> LaunchMember(Harness* h,
                                                    sim::Host* host) {
  auto rec = std::make_unique<MemberRec>();
  MemberRec* m = rec.get();
  h->members.push_back(std::move(rec));
  m->serial = h->members_launched++;
  m->host = host;
  m->recorder = std::make_unique<model::TraceRecorder>();
  // Ports are per-serial: a failed join (e.g. get_state hit divergent
  // donors) leaves the abandoned process's socket bound, and a later
  // sweep may legitimately pick the same machine again.
  core::RpcOptions member_rpc;
  if (h->opts.duplicate_delivery_bug) {
    // The planted duplicate-delivery bug needs both layers broken: the
    // endpoint must redeliver duplicates (no completed-exchange
    // history) and the core must re-answer them with a mangled return.
    member_rpc.endpoint.completed_history_per_peer = 0;
    member_rpc.redeliver_duplicates_bug = true;
  }
  m->process = std::make_unique<RpcProcess>(
      &h->world.network(), host,
      static_cast<net::Port>(9000 + m->serial), member_rpc);
  // Recorded via the bus tap: the determinism check consumes the same
  // event stream every other observer sees.
  const net::NetAddress address = m->process->process_address();
  h->tap.Attach(obs::PackAddress(address.host, address.port),
                m->recorder.get());
  m->server =
      std::make_unique<txn::TransactionalServer>(m->process.get(), kTroupeName);
  m->module = m->server->module_number();
  h->module_number = m->module;
  InstallMemberProcedures(h, m);
  // Full member state is the counter plus the transactional store; the
  // combined form feeds both get_state transfer and the sweep-time
  // state-agreement check.
  m->process->SetStateProvider(m->module, [m] {
    marshal::Writer w;
    w.WriteI64(m->counter);
    w.WriteBytes(m->server->store().ExternalizeState());
    return w.Take();
  });
  h->member_of_address[m->process->process_address()] = m;
  // Registered with the monitor before the get_state transfer: a call
  // racing the non-atomic join window (Section 6.4.1) lands inside the
  // member's checked range and at worst conservatively damages it.
  h->monitor.NoteMemberLaunched(m->serial, m->recorder.get());

  Reconfigurer::LaunchedMember launched;
  launched.process = m->process.get();
  launched.module = m->module;
  launched.accept_state = [m](const Bytes& state) {
    marshal::Reader r(state);
    m->counter = r.ReadI64();
    const Bytes store_state = r.ReadBytes();
    m->server->store().InternalizeState(store_state);
  };
  return launched;
}

// ---------------------------------------------------------------------
// Harness construction.

std::string SpecFor(int n) {
  std::string vars;
  std::string where;
  for (int i = 0; i < n; ++i) {
    const std::string v = "m" + std::to_string(i);
    vars += (i ? ", " : "") + v;
    where += (i ? " and " : "") + v + ".memory >= 1";
  }
  return "troupe (" + vars + ") where " + where;
}

Harness::Harness(const HarnessOptions& options)
    : world(options.seed, sim::SyscallCostModel::Free()),
      opts(options),
      tap(&world.bus()) {
  if (opts.audit_wire) {
    // Every datagram of the run, audited against the Section 4.2 wire
    // rules; RunChaos collects the verdict at the end.
    wire = std::make_unique<obs::wire::WireAuditor>(
        obs::wire::AuditOptionsFor(msg::EndpointOptions{}));
    wire->Attach(&world.bus());
  }
  ring = binding::DeployRingmaster(world, world.AddHosts("ring", 1));

  const int pool = opts.troupe_size + opts.spare_machines;
  for (int i = 0; i < pool; ++i) {
    sim::Host* host = world.AddHost("pool" + std::to_string(i));
    const config::MachineId id = database.AddMachine(
        {{"name", config::Value(std::string("pool") + std::to_string(i))},
         {"memory", config::Value(8.0)}});
    machine_host[id] = host;
  }

  agent_host = world.AddHost("agent");
  agent_process =
      std::make_unique<RpcProcess>(&world.network(), agent_host, 8100);
  agent_binding = std::make_unique<BindingClient>(agent_process.get(),
                                                  ring.troupe);
  reconfigurer = std::make_unique<Reconfigurer>(agent_process.get(),
                                                agent_binding.get(), &database);
  StatusOr<config::TroupeSpec> spec =
      config::ParseTroupeSpec(SpecFor(opts.troupe_size));
  CIRCUS_CHECK(spec.ok());
  Harness* self = this;
  reconfigurer->Manage(
      kTroupeName, std::move(*spec),
      [self](config::MachineId machine)
          -> StatusOr<Reconfigurer::LaunchedMember> {
        auto it = self->machine_host.find(machine);
        if (it == self->machine_host.end() || !it->second->up()) {
          return Status(ErrorCode::kUnavailable, "machine gone");
        }
        return LaunchMember(self, it->second);
      });

  client_host = world.AddHost("client");
  client_process =
      std::make_unique<RpcProcess>(&world.network(), client_host, 8200);
  client_binding = std::make_unique<BindingClient>(client_process.get(),
                                                   ring.troupe);
  client_cache = std::make_unique<BindingCache>(client_binding.get());
  client_process->SetClientTroupeResolver(client_cache->MakeResolver());
  coordinator = std::make_unique<txn::CommitCoordinator>(client_process.get());

  scratch = std::make_shared<CollatorScratch>();
  scratch->quorum = opts.troupe_size / 2 + 1;
  scratch->mangle = opts.broken_collator;
  if (opts.first_come_calls) {
    call_opts.collation = core::Collation::kFirstCome;
  } else {
    call_opts.custom_collator = MakeMajorityCollator(scratch);
  }

  nemesis_host = world.AddHost("nemesis");
  baseline = world.network().default_fault_plan();

  net::World* world_ptr = &world;
  monitor.SetClock([world_ptr] { return world_ptr->now().nanos(); });
  InvariantMonitor* monitor_ptr = &monitor;
  monitor_sub = world.bus().Subscribe([monitor_ptr](const obs::Event& e) {
    if (e.kind != obs::EventKind::kPacketSend) {
      return;
    }
    monitor_ptr->ObservePacket(
        net::NetAddress{obs::PackedAddressHost(e.a),
                        obs::PackedAddressPort(e.a)},
        net::NetAddress{obs::PackedAddressHost(e.b),
                        obs::PackedAddressPort(e.b)});
  });
}

Harness::~Harness() { world.bus().Unsubscribe(monitor_sub); }

// ---------------------------------------------------------------------
// Repair: fail-stop a member whose state provably forked, so the
// Reconfigurer replaces it with a copy of the surviving lineage.

void KillMember(Harness* h, net::NetAddress address, const char* why) {
  if (!h->opts.repair_divergence) {
    return;
  }
  auto it = h->member_of_address.find(address);
  if (it == h->member_of_address.end() || !it->second->host->up()) {
    return;
  }
  (void)why;
  it->second->host->Crash();
  ++h->suspects_killed;
}

void RepairFromScratch(Harness* h, bool accepted, int* split_strikes) {
  if (accepted) {
    *split_strikes = 0;
    // Members outside an accepted quorum have provably forked.
    for (const net::NetAddress& a : h->scratch->divergent) {
      KillMember(h, a, "diverged from accepted quorum");
    }
    return;
  }
  if (!h->scratch->disagreement) {
    *split_strikes = 0;  // unreachable/stale — no divergence evidence
    return;
  }
  // A split with no majority cannot repair itself (no side can win a
  // quorum); after two consecutive splits, retire every class but the
  // deterministically kept one.
  if (++*split_strikes >= 2) {
    *split_strikes = 0;
    for (const net::NetAddress& a : h->scratch->divergent) {
      KillMember(h, a, "split-brain tie-break");
    }
  }
}

// ---------------------------------------------------------------------
// Workload loops (free coroutines; all state passed via Harness*).

Task<void> ClientCallLoop(Harness* h) {
  int split_strikes = 0;
  for (;;) {
    co_await h->client_host->SleepFor(h->opts.call_period);
    if (h->stop_workload) {
      co_return;
    }
    bool accepted = false;
    // Each attempt is its own root thread and its own tracked call:
    // after a rebind the retry is a genuinely new call (new call
    // number), and the monitor's per-call damage accounting needs to
    // see the attempts separately.
    for (int attempt = 0; attempt < 2; ++attempt) {
      h->scratch->disagreement = false;
      h->scratch->divergent.clear();
      const ThreadId thread = h->client_process->NewRootThread();
      const int index = h->monitor.NoteCallIssued(thread.ToString());
      StatusOr<Bytes> r = co_await h->client_cache->CallByName(
          h->client_process.get(), thread, kTroupeName, kCounterProc, Bytes{},
          h->call_opts, /*max_rebinds=*/0);
      if (r.ok()) {
        h->monitor.NoteCallAccepted(index, *r);
        accepted = true;
      } else {
        h->monitor.NoteCallFailed(index);
        h->client_cache->Invalidate(kTroupeName);
      }
      RepairFromScratch(h, accepted, &split_strikes);
      if (accepted || r.status().code() != ErrorCode::kStaleBinding) {
        break;
      }
    }
    if (accepted) {
      ++h->calls_accepted;
    } else {
      ++h->calls_failed;
    }
  }
}

Task<Status> AddTxnBody(RpcProcess* process, ThreadId thread, Troupe troupe,
                        ModuleNumber module, int64_t delta, txn::TxnId txn) {
  marshal::Writer w;
  txn.Write(w);
  w.WriteString("reg");
  w.WriteI64(delta);
  const Bytes args = w.Take();
  StatusOr<Bytes> r =
      co_await process->Call(thread, troupe, module, kTxnAddProc, args);
  co_return r.status();
}

Task<void> ClientTxnLoop(Harness* h) {
  for (;;) {
    co_await h->client_host->SleepFor(h->opts.txn_period);
    if (h->stop_workload) {
      co_return;
    }
    StatusOr<Troupe> troupe = co_await h->client_cache->Import(kTroupeName);
    if (!troupe.ok() || troupe->members.empty()) {
      h->client_cache->Invalidate(kTroupeName);
      ++h->txns_failed;
      continue;
    }
    const ThreadId thread = h->client_process->NewRootThread();
    RpcProcess* process = h->client_process.get();
    const Troupe server = *troupe;
    const ModuleNumber module = h->module_number;
    txn::TransactionBody body = [process, thread, server,
                                 module](const txn::TxnId& txn) {
      return AddTxnBody(process, thread, server, module, 1, txn);
    };
    txn::RunTransactionOptions topts;
    topts.max_attempts = 2;
    Status s = co_await txn::RunTransaction(process, h->coordinator.get(),
                                            thread, server, module, body,
                                            topts);
    if (s.ok()) {
      ++h->txns_ok;
    } else {
      ++h->txns_failed;
      h->client_cache->Invalidate(kTroupeName);
    }
  }
}

// ---------------------------------------------------------------------
// Maintenance: reconfiguration sweeps plus the state-agreement check.

Task<void> RefreshMembership(Harness* h) {
  StatusOr<Troupe> t = co_await h->agent_binding->LookupByName(kTroupeName);
  if (!t.ok()) {
    co_return;
  }
  h->current_members.clear();
  for (const core::ModuleAddress& member : t->members) {
    h->current_members.push_back(member.process);
    h->monitor.AddMemberAddress(member.process);
  }
}

// Direct get_state from each member; a member whose externalized state
// is in the minority on two consecutive checks has persistently forked
// (a snapshot racing an in-flight call never repeats) and is retired.
Task<void> CheckStateAgreement(Harness* h) {
  if (!h->opts.repair_divergence) {
    co_return;
  }
  StatusOr<Troupe> t = co_await h->agent_binding->LookupByName(kTroupeName);
  if (!t.ok() || t->members.size() < 2) {
    h->state_suspects.clear();
    co_return;
  }
  std::map<Bytes, std::vector<net::NetAddress>> classes;
  for (const core::ModuleAddress& member : t->members) {
    marshal::Writer w;
    w.WriteU16(member.module);
    const Bytes args = w.Take();
    CallOptions opts;
    opts.as_unreplicated_client = true;
    const Troupe direct = Troupe::Direct(member);
    StatusOr<Bytes> state = co_await h->agent_process->Call(
        h->agent_process->NewRootThread(), direct, core::kRuntimeModule,
        core::kGetState, args, opts);
    if (state.ok()) {
      classes[*state].push_back(member.process);
    }
  }
  if (classes.size() <= 1) {
    h->state_suspects.clear();
    co_return;
  }
  const std::vector<net::NetAddress>* keep = nullptr;
  net::NetAddress keep_low;
  for (const auto& [value, who] : classes) {
    net::NetAddress low = *std::min_element(who.begin(), who.end());
    if (keep == nullptr || who.size() > keep->size() ||
        (who.size() == keep->size() && low < keep_low)) {
      keep = &who;
      keep_low = low;
    }
  }
  std::set<net::NetAddress> minority;
  for (const auto& [value, who] : classes) {
    if (&who == keep) {
      continue;
    }
    for (const net::NetAddress& a : who) {
      minority.insert(a);
    }
  }
  for (const net::NetAddress& a : minority) {
    if (h->state_suspects.contains(a)) {
      KillMember(h, a, "state minority twice");
    }
  }
  h->state_suspects = std::move(minority);
}

Task<void> SweepLoop(Harness* h) {
  for (;;) {
    StatusOr<ReconfigReport> report = co_await h->reconfigurer->SweepOnce();
    (void)report;  // failures retried next period; convergence is
                   // judged by the final checks
    co_await RefreshMembership(h);
    co_await CheckStateAgreement(h);
    if (h->stop_workload) {
      co_return;
    }
    co_await h->agent_host->SleepFor(h->opts.sweep_period);
    if (h->stop_workload) {
      co_return;  // re-check: FinalChecks sweeps on its own after stop
    }
  }
}

// ---------------------------------------------------------------------
// Final convergence checks (run after heal + settle).

Task<void> FinalChecks(Harness* h) {
  // 1. The troupe is back at specified strength; one retry in case the
  //    first pass itself had repairs to make (trimming a phantom,
  //    replacing a freshly retired fork).
  StatusOr<ReconfigReport> report = co_await h->reconfigurer->SweepOnce();
  for (int retry = 0; retry < 2; ++retry) {
    if (report.ok() &&
        static_cast<int>(report->final_size) == h->opts.troupe_size) {
      break;
    }
    co_await h->agent_host->SleepFor(sim::Duration::Seconds(10));
    report = co_await h->reconfigurer->SweepOnce();
  }
  if (!report.ok()) {
    h->monitor.AddViolation("no reconfiguration convergence after heal: " +
                            report.status().ToString());
  } else if (static_cast<int>(report->final_size) != h->opts.troupe_size) {
    h->monitor.AddViolation(
        "troupe not at specified strength after heal: " +
        std::to_string(report->final_size) + " of " +
        std::to_string(h->opts.troupe_size));
  }
  co_await RefreshMembership(h);

  // 2. A fresh binding cache re-imports the name and every registered
  //    member answers the null call (binding convergence).
  BindingCache fresh(h->client_binding.get());
  StatusOr<Troupe> troupe = co_await fresh.Import(kTroupeName);
  if (!troupe.ok()) {
    h->monitor.AddViolation("binding cache cannot re-import after heal: " +
                            troupe.status().ToString());
  } else {
    for (const core::ModuleAddress& member : troupe->members) {
      CallOptions opts;
      opts.as_unreplicated_client = true;
      const Troupe direct = Troupe::Direct(member);
      StatusOr<Bytes> pong = co_await h->client_process->Call(
          h->client_process->NewRootThread(), direct, core::kRuntimeModule,
          core::kPing, Bytes{}, opts);
      if (!pong.ok()) {
        h->monitor.AddViolation("registered member unreachable after heal: " +
                                member.process.ToString());
      }
    }
  }

  // 3. One more replicated call through the fresh cache must be
  //    accepted by a quorum.
  const ThreadId thread = h->client_process->NewRootThread();
  const int index = h->monitor.NoteCallIssued(thread.ToString());
  StatusOr<Bytes> r = co_await fresh.CallByName(
      h->client_process.get(), thread, kTroupeName, kCounterProc, Bytes{},
      h->call_opts, /*max_rebinds=*/2);
  if (r.ok()) {
    h->monitor.NoteCallAccepted(index, *r);
    ++h->calls_accepted;
  } else {
    h->monitor.NoteCallFailed(index);
    ++h->calls_failed;
    h->monitor.AddViolation("no call convergence after heal: " +
                            r.status().ToString());
  }
  h->final_checks_done = true;
}

std::vector<sim::Host*> LiveMemberHosts(Harness* h) {
  std::vector<sim::Host*> hosts;
  for (const net::NetAddress& a : h->current_members) {
    auto it = h->member_of_address.find(a);
    if (it != h->member_of_address.end() && it->second->host->up()) {
      hosts.push_back(it->second->host);
    }
  }
  return hosts;
}

}  // namespace

std::string ChaosReport::Summary() const {
  std::string s = "calls " + std::to_string(calls_accepted) + "/" +
                  std::to_string(calls_issued) + " accepted, " +
                  std::to_string(calls_failed) + " failed; txns " +
                  std::to_string(txns_ok) + " ok " +
                  std::to_string(txns_failed) + " failed; faults " +
                  std::to_string(faults_applied) + " (crashes " +
                  std::to_string(crashes_injected) + "); members launched " +
                  std::to_string(members_launched) + ", repaired " +
                  std::to_string(suspects_killed) + "; violations " +
                  std::to_string(violations.size());
  for (const std::string& v : violations) {
    s += "\n  ! " + v;
  }
  return s;
}

ChaosReport RunChaos(const Schedule& schedule, const HarnessOptions& options) {
  HarnessOptions opts = options;
  if (opts.spare_machines == 0) {
    // Enough machines for every scheduled crash plus repair kills.
    opts.spare_machines = static_cast<int>(schedule.actions.size()) + 8;
  }

  Harness h(opts);
  const bool want_events = opts.collect_events ||
                           !opts.trace_json_path.empty() ||
                           !opts.trace_jsonl_path.empty();
  std::optional<obs::EventLog> event_log;
  if (want_events) {
    event_log.emplace(&h.world.bus());
  }
  h.world.executor().Spawn(SweepLoop(&h));
  h.world.executor().Spawn(ClientCallLoop(&h));
  if (opts.with_transactions) {
    h.world.executor().Spawn(ClientTxnLoop(&h));
  }
  h.world.RunFor(opts.warmup);

  NemesisTargets targets;
  targets.world = &h.world;
  Harness* self = &h;
  targets.member_hosts = [self] { return LiveMemberHosts(self); };
  targets.baseline = h.baseline;
  h.nemesis = std::make_unique<Nemesis>(targets, h.nemesis_host);
  h.world.executor().Spawn(h.nemesis->Run(schedule));
  h.world.RunFor(opts.run_length + Duration::Seconds(5));

  // Settle: revert anything still outstanding, then let the maintenance
  // loops converge the system.
  h.world.network().HealPartitions();
  h.world.network().set_default_fault_plan(h.baseline);
  for (size_t i = 0; i < h.world.host_count(); ++i) {
    h.world.host(i)->set_clock_skew(Duration::Zero());
  }
  h.world.RunFor(opts.settle_length);
  h.stop_workload = true;
  h.world.RunFor(Duration::Seconds(10));

  h.world.executor().Spawn(FinalChecks(&h));
  h.world.RunFor(Duration::Seconds(120));
  if (!h.final_checks_done) {
    h.monitor.AddViolation("final convergence checks did not complete");
  }

  // Wire-level oracle: close out the Section 4.2 audit of the run's
  // packets before the monitor does.
  if (h.wire != nullptr) {
    h.wire->Detach();
    const obs::wire::AuditReport wire = h.wire->Finish();
    constexpr size_t kMaxWireViolations = 10;
    for (size_t i = 0;
         i < wire.violations.size() && i < kMaxWireViolations; ++i) {
      h.monitor.AddViolation("wire: " + wire.violations[i]);
    }
    if (wire.violations.size() > kMaxWireViolations) {
      h.monitor.AddViolation(
          "wire: +" +
          std::to_string(wire.violations.size() - kMaxWireViolations) +
          " more wire violation(s)");
    }
  }

  ChaosReport report;
  report.schedule_digest = schedule.Digest();
  report.calls_issued = h.monitor.issued_count();
  report.calls_accepted = h.calls_accepted;
  report.calls_failed = h.calls_failed;
  report.txns_ok = h.txns_ok;
  report.txns_failed = h.txns_failed;
  report.faults_applied = h.nemesis != nullptr ? h.nemesis->faults_applied() : 0;
  report.crashes_injected =
      h.nemesis != nullptr ? h.nemesis->crashes_injected() : 0;
  report.members_launched = h.members_launched;
  report.suspects_killed = h.suspects_killed;
  report.violations = h.monitor.Finish();
  report.trace_digest = h.monitor.TraceDigest();
  report.metrics = h.world.metrics().Snap(h.world.now().nanos());
  if (event_log.has_value()) {
    if (!opts.trace_json_path.empty()) {
      Status written = obs::WriteStringToFile(
          opts.trace_json_path,
          obs::ToChromeTrace(event_log->events(), h.world.HostNames()));
      if (!written.ok()) {
        report.violations.push_back("trace export failed: " +
                                    written.ToString());
      }
    }
    if (!opts.trace_jsonl_path.empty()) {
      Status written = obs::WriteStringToFile(
          opts.trace_jsonl_path, obs::ToJsonLines(event_log->events()));
      if (!written.ok()) {
        report.violations.push_back("trace export failed: " +
                                    written.ToString());
      }
    }
    if (opts.collect_events) {
      report.events = event_log->Take();
    }
  }
  return report;
}

}  // namespace circus::chaos
