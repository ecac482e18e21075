// `circus node CONFIG`: one Circus node over real UDP. Reads a small
// key=value config (see node_config.h) and runs one role:
//
//   ringmaster  serves the binding interface on its listen address;
//   member      exports the configured interface, joins the troupe via
//               the Section 6.4.1 get_state + add_troupe_member recipe,
//               then serves calls;
//   client      imports the troupe by name and issues replicated calls,
//               reporting wall-clock latency (the Table 4.1 shape).
//
// Every node is observable while it runs (DESIGN.md Section 6): with
// stats_port= it answers metrics/health/spans/latency datagrams, with
// trace_dir= it streams its event shard to disk for `circus merge`,
// and with slow_call_us= it dumps every call slower than the threshold
// to the shard as a slow_call event. SIGINT and SIGTERM shut the node
// down gracefully — final metrics snapshot and trace shard flushed
// before exit.
//
// A loopback testbed is a handful of `circus node` processes sharing
// 127.0.0.1; a LAN deployment is the same configs with real addresses.
#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/replfs/client.h"
#include "src/apps/replfs/server.h"
#include "src/binding/backoff.h"
#include "src/binding/client.h"
#include "src/binding/ringmaster.h"
#include "src/common/check.h"
#include "src/common/log.h"
#include "src/core/process.h"
#include "src/marshal/marshal.h"
#include "src/net/fault_fabric.h"
#include "src/rt/cli.h"
#include "src/rt/fault_control.h"
#include "src/rt/introspect.h"
#include "src/rt/node_config.h"
#include "src/rt/runtime.h"
#include "src/sim/random.h"

namespace circus::rt {
namespace {

// The Ringmaster's binding interface is the first module its process
// exports, so its module number is the same on every node.
constexpr core::ModuleNumber kRingmasterModule = 0;

core::Troupe BootstrapRingmasterTroupe(net::NetAddress address) {
  core::Troupe troupe;
  troupe.id = binding::kRingmasterTroupeId;
  troupe.members.push_back(
      core::ModuleAddress{address, kRingmasterModule});
  return troupe;
}

sim::Duration ServeBudget(const NodeConfig& config) {
  return config.run_seconds > 0 ? sim::Duration::Seconds(config.run_seconds)
                                : sim::Duration::Seconds(1 << 30);
}

// ------------------------------------------------------------ shutdown --
// SIGINT/SIGTERM request a graceful stop. The handler only sets a flag
// and pokes a self-pipe the IoLoop watches, so a signal arriving while
// the loop is blocked in epoll_wait wakes it immediately (no SA_RESTART,
// and no race between the predicate check and the epoll sleep).

volatile std::sig_atomic_t g_shutdown = 0;
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int) {
  g_shutdown = 1;
  if (g_signal_pipe[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = write(g_signal_pipe[1], &byte, 1);
  }
}

bool ShutdownRequested() { return g_shutdown != 0; }

void InstallShutdownHandling(Runtime& runtime) {
  CIRCUS_CHECK(pipe2(g_signal_pipe, O_NONBLOCK | O_CLOEXEC) == 0);
  runtime.loop().WatchFd(g_signal_pipe[0], [] {
    char buf[16];
    while (read(g_signal_pipe[0], buf, sizeof(buf)) > 0) {
    }
  });
  struct sigaction sa {};
  sa.sa_handler = HandleSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: epoll_wait must EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

// ------------------------------------------------------------- logging --
// rt-aware sink: wall-clock timestamps (the executor clock IS wall time
// here, seeded from CLOCK_REALTIME) and a role/host:port prefix so
// interleaved stderr from a testbed's nodes stays attributable.

int64_t WallRealtimeNanos() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void InstallLogSink(const NodeConfig& config) {
  const std::string prefix =
      std::string(config.RoleName()) + "/" + config.listen.ToString();
  SetLogSink([prefix](LogLevel level, int64_t time_ns,
                      const std::string& message) {
    if (time_ns < 0) {
      time_ns = WallRealtimeNanos();  // logged outside the loop
    }
    const time_t seconds = static_cast<time_t>(time_ns / 1000000000);
    tm utc{};
    gmtime_r(&seconds, &utc);
    char clock[16];
    strftime(clock, sizeof(clock), "%H:%M:%S", &utc);
    static const char* kLetters = "TDIWE";
    std::fprintf(stderr, "[%c %s.%06ld %s] %s\n",
                 kLetters[static_cast<int>(level)], clock,
                 static_cast<long>((time_ns % 1000000000) / 1000),
                 prefix.c_str(), message.c_str());
  });
}

#define NODE_LOG(runtime) \
  CIRCUS_LOG_AT(LogLevel::kInfo, (runtime).now().nanos())

// Common epilogue: final metrics snapshot + trace shard, then report.
int FinishNode(Runtime& runtime, NodeObservability& node_obs, int rc) {
  node_obs.FinalFlush();
  if (!node_obs.status().ok()) {
    CIRCUS_LOG_AT(LogLevel::kWarning, runtime.now().nanos())
        << "observability degraded: " << node_obs.status().ToString();
  }
  NODE_LOG(runtime) << (ShutdownRequested() ? "shutdown (signal)"
                                            : "shutdown (budget)");
  return rc;
}

// ------------------------------------------------------ fault wiring --
// When faults_port= is configured, the node's protocol sockets are
// built on a FaultFabric decorating the runtime's UDP fabric, and the
// control endpoint steering it binds on the *inner* fabric (so a
// nemesis can always heal the faults it injected). Bind conflicts on
// the control ports are operator errors: one clear line, nonzero exit.

struct FaultWiring {
  std::unique_ptr<net::FaultFabric> fabric;
  std::unique_ptr<FaultControl> control;
  net::Fabric* protocol_fabric = nullptr;  // where RpcProcess sockets go
};

std::optional<FaultWiring> WireFaults(Runtime& runtime, sim::Host* host,
                                      NodeObservability& node_obs,
                                      const NodeConfig& config) {
  FaultWiring wiring;
  wiring.protocol_fabric = &runtime.fabric();
  if (config.faults_port == 0) {
    return wiring;
  }
  wiring.fabric = std::make_unique<net::FaultFabric>(
      &runtime.fabric(), &runtime.executor(), config.fault_seed);
  circus::StatusOr<std::unique_ptr<FaultControl>> control =
      FaultControl::Open(&runtime, host, wiring.fabric.get(),
                         config.faults_port);
  if (!control.ok()) {
    std::fprintf(stderr, "circus node: cannot bind faults_port %u: %s\n",
                 config.faults_port, control.status().ToString().c_str());
    return std::nullopt;
  }
  wiring.control = std::move(*control);
  node_obs.SetFaultFabric(wiring.fabric.get());
  wiring.protocol_fabric = wiring.fabric.get();
  return wiring;
}

bool StatsBindFailed(const NodeConfig& config,
                     const NodeObservability& node_obs) {
  if (node_obs.stats_status().ok()) {
    return false;
  }
  std::fprintf(stderr, "circus node: cannot bind stats_port %u: %s\n",
               config.stats_port,
               node_obs.stats_status().ToString().c_str());
  return true;
}

// --------------------------------------------------------------- roles --

int RunRingmaster(const NodeConfig& config, Runtime& runtime,
                  NodeObservability& node_obs, core::RpcProcess& process) {
  binding::RingmasterServer server(&process);
  server.BootstrapSelf(BootstrapRingmasterTroupe(config.listen));
  NODE_LOG(runtime) << "ringmaster on " << config.listen.ToString();
  runtime.RunUntil(ShutdownRequested, ServeBudget(config));
  return FinishNode(runtime, node_obs, 0);
}

int RunMember(const NodeConfig& config, Runtime& runtime,
              NodeObservability& node_obs, core::RpcProcess& process) {
  sim::Host* host = process.host();
  binding::BindingClient binding(
      &process, BootstrapRingmasterTroupe(config.ringmaster));
  binding::BindingCache cache(&binding);
  process.SetClientTroupeResolver(cache.MakeResolver());

  // The exported module, by workload. echo: an echo procedure (0) plus
  // a counter procedure (1) whose value is the module state —
  // deterministic, so replicas stay aligned and get_state can seed a
  // joiner. replfs: the stub-generated ReplFs module plus its ordered
  // broadcast writes module; module state is the transactional store.
  core::ModuleNumber module = 0;
  std::function<void(const circus::Bytes&)> accept_state;
  std::unique_ptr<apps::replfs::Server> replfs;
  if (config.workload == "replfs") {
    replfs = std::make_unique<apps::replfs::Server>(&process);
    module = replfs->module_number();
    apps::replfs::Server* server = replfs.get();
    accept_state = [server](const circus::Bytes& bytes) {
      server->store().InternalizeState(bytes);
    };
    host->Spawn(server->DeliverLoop());
  } else {
    auto counter = std::make_shared<int32_t>(0);
    module = process.ExportModule(config.interface_name);
    process.ExportProcedure(
        module, 0,
        [](core::ServerCallContext&, const circus::Bytes& args)
            -> sim::Task<circus::StatusOr<circus::Bytes>> {
          co_return circus::Bytes(args);
        });
    process.ExportProcedure(
        module, 1,
        [counter](core::ServerCallContext&, const circus::Bytes&)
            -> sim::Task<circus::StatusOr<circus::Bytes>> {
          marshal::Writer w;
          w.WriteI32(++*counter);
          co_return w.Take();
        });
    process.SetStateProvider(module, [counter] {
      marshal::Writer w;
      w.WriteI32(*counter);
      return w.Take();
    });
    accept_state = [counter](const circus::Bytes& bytes) {
      marshal::Reader r(bytes);
      *counter = r.ReadI32();
    };
  }

  bool joined = false;
  host->Spawn([](core::RpcProcess* p, core::ModuleNumber m,
                 binding::BindingClient* b, std::string name,
                 std::function<void(const circus::Bytes&)> accept,
                 bool* done) -> sim::Task<void> {
    binding::BackoffPolicy policy;
    sim::Rng rng(
        (static_cast<uint64_t>(p->process_address().port) << 32) ^
        static_cast<uint64_t>(p->host()->executor().now().nanos()));
    for (int attempt = 0; g_shutdown == 0; ++attempt) {
      // A restarted member may still be registered from its previous
      // incarnation; that stale self would answer the replicated
      // get_state as a reborn (empty) replica and fail the join with a
      // divergence. Evict it first — kNotFound just means a clean
      // start.
      circus::StatusOr<core::TroupeId> evicted =
          co_await b->RemoveTroupeMember(name, p->module_address(m));
      (void)evicted;
      circus::Status status =
          co_await binding::JoinTroupe(p, m, b, name, accept);
      if (status.ok()) {
        *done = true;
        co_return;
      }
      CIRCUS_LOG(LogLevel::kWarning)
          << "join attempt " << attempt
          << " failed: " << status.ToString();
      co_await p->host()->SleepFor(
          binding::BackoffDelay(policy, attempt, rng));
    }
  }(&process, module, &binding, config.troupe, accept_state, &joined));

  if (!runtime.RunUntil(
          [&joined] { return joined || ShutdownRequested(); },
          sim::Duration::Seconds(60)) ||
      !joined) {
    CIRCUS_LOG_AT(LogLevel::kError, runtime.now().nanos())
        << "could not join troupe '" << config.troupe << "'";
    return FinishNode(runtime, node_obs, 1);
  }
  NODE_LOG(runtime) << "member of '" << config.troupe << "' on "
                    << config.listen.ToString();
  runtime.RunUntil(ShutdownRequested, ServeBudget(config));
  return FinishNode(runtime, node_obs, 0);
}

// ------------------------------------------------------ replfs client --
// The replfs workload speaks transactions, not raw calls: each probe is
// open / write one block / close / commit through apps::replfs::Client.
// Binding is explicit (Import + Bind) rather than through the process's
// transparent troupe resolver: replfs derives its writes-broadcast
// troupe from the bound ReplFs troupe by module-number offset, and a
// transparent re-resolution by troupe id would rebind it to the ReplFs
// modules. On failure the client re-imports and re-binds by hand.

sim::Task<circus::Status> BindReplFs(binding::BindingCache* cache,
                                     apps::replfs::Client* fs,
                                     const std::string& name) {
  circus::StatusOr<core::Troupe> troupe = co_await cache->Import(name);
  if (!troupe.ok()) {
    co_return troupe.status();
  }
  fs->Bind(*troupe);
  co_return circus::Status::Ok();
}

// One probe transaction: write `words` words of `fill` into one block
// of `file`. A free coroutine (not a lambda) per the CLAUDE.md rules.
sim::Task<circus::Status> WriteBlockBody(std::string file, uint32_t block,
                                         uint16_t fill, int words,
                                         apps::replfs::Session* session) {
  circus::StatusOr<uint16_t> fd = co_await session->Open(file);
  if (!fd.ok()) {
    co_return fd.status();
  }
  idl::ReplFs::BlockData data(static_cast<size_t>(words), fill);
  circus::Status wrote = co_await session->Write(*fd, block, std::move(data));
  if (!wrote.ok()) {
    co_return wrote;
  }
  co_return co_await session->Close(*fd);
}

apps::replfs::Client::Body MakeWriteBlockBody(std::string file,
                                              uint32_t block, uint16_t fill,
                                              int words) {
  return [file, block, fill, words](apps::replfs::Session& session) {
    return WriteBlockBody(file, block, fill, words, &session);
  };
}

struct ClientProgress {
  std::vector<double> latencies_ms;
  size_t failed = 0;
  bool finished = false;
  bool ok = true;
  bool verified = false;  // replfs verify probe
};

// Both workloads' epilogue: the run's verdict and its summary line.
int ReportClient(const NodeConfig& config, Runtime& runtime,
                 NodeObservability& node_obs, const ClientProgress& progress) {
  // An operator stop (SIGINT/SIGTERM) mid-run is a graceful exit, not a
  // failure: report whatever completed and flush as usual.
  const std::vector<double>& ms = progress.latencies_ms;
  const bool stopped_early = !progress.finished && ShutdownRequested();
  if (!stopped_early && !config.resilient &&
      (!progress.finished || !progress.ok || ms.empty())) {
    CIRCUS_LOG_AT(LogLevel::kError, runtime.now().nanos())
        << "client run failed";
    return FinishNode(runtime, node_obs, 1);
  }
  if (ms.empty() && !config.resilient) {
    return FinishNode(runtime, node_obs, 0);
  }
  const size_t ok_calls = ms.size();
  const auto [min, max] = std::minmax_element(ms.begin(), ms.end());
  const double mean =
      ok_calls > 0 ? std::accumulate(ms.begin(), ms.end(), 0.0) / ok_calls
                   : 0.0;
  const double min_ms = ok_calls > 0 ? *min : 0.0;
  const double max_ms = ok_calls > 0 ? *max : 0.0;
  if (config.resilient) {
    // The availability line the nemesis parses: attempted/ok/failed.
    std::printf(
        "calls=%zu ok=%zu failed=%zu mean_ms=%.3f min_ms=%.3f "
        "max_ms=%.3f\n",
        ok_calls + progress.failed, ok_calls, progress.failed, mean, min_ms,
        max_ms);
  } else {
    std::printf("calls=%zu mean_ms=%.3f min_ms=%.3f max_ms=%.3f\n",
                ok_calls, mean, min_ms, max_ms);
  }
  return FinishNode(runtime, node_obs, 0);
}

sim::Task<void> ReplFsClientLoop(Runtime* rt, core::RpcProcess* p,
                                 binding::BindingCache* c,
                                 apps::replfs::Client* fs, NodeConfig cfg,
                                 std::shared_ptr<ClientProgress> out) {
  const core::ThreadId thread = p->NewRootThread();
  sim::Rng rng((static_cast<uint64_t>(p->process_address().port) << 32) ^
               static_cast<uint64_t>(p->host()->executor().now().nanos()));
  // Initial bind, retried: the testbed may still be assembling (or, for
  // a post-chaos verify probe, still healing).
  for (int attempt = 0;; ++attempt) {
    circus::Status bound = co_await BindReplFs(c, fs, cfg.troupe);
    if (bound.ok()) {
      break;
    }
    if (attempt >= 40 || g_shutdown != 0) {
      CIRCUS_LOG(LogLevel::kError)
          << "cannot bind '" << cfg.troupe << "': " << bound.ToString();
      out->ok = false;
      out->finished = true;
      co_return;
    }
    c->Invalidate(cfg.troupe);
    co_await p->host()->SleepFor(sim::Duration::Millis(250));
  }
  apps::replfs::ClientOptions options;
  options.rng = &rng;
  const int words = cfg.payload > 0 ? cfg.payload : 1;

  if (cfg.verify) {
    // Read-your-writes convergence probe: commit one known block, then
    // read it back unanimously. The read collates at every member —
    // restarted incarnations included — so success means the committed
    // write is identical troupe-wide.
    options.max_attempts = 10;
    apps::replfs::Client::Body body =
        MakeWriteBlockBody("verify", 0, 0xC0DE, words);
    circus::Status committed = co_await fs->Run(thread, body, options);
    if (!committed.ok()) {
      CIRCUS_LOG(LogLevel::kError)
          << "verify commit failed: " << committed.ToString();
      out->ok = false;
      out->finished = true;
      co_return;
    }
    circus::StatusOr<idl::ReplFs::BlockData> readback =
        co_await fs->ReadBlock(thread, "verify", 0);
    bool good = readback.ok() &&
                readback->size() == static_cast<size_t>(words);
    if (good) {
      for (uint16_t word : *readback) {
        good = good && word == 0xC0DE;
      }
    } else {
      CIRCUS_LOG(LogLevel::kError)
          << "verify readback failed: " << readback.status().ToString();
    }
    circus::StatusOr<idl::ReplFs::Manifest> manifest =
        co_await fs->GetManifest(thread);
    good = good && manifest.ok();
    out->verified = good;
    out->ok = good;
    out->finished = true;
    co_return;
  }

  // Load / availability-probe mode: one single-block transaction per
  // probe, striped over a small block range so the manifest and block
  // keys both get steady write traffic.
  options.max_attempts = cfg.resilient ? 3 : 8;
  for (int i = 0; i < cfg.calls && g_shutdown == 0; ++i) {
    const sim::TimePoint start = rt->loop().WallNow();
    apps::replfs::Client::Body body = MakeWriteBlockBody(
        "load", static_cast<uint32_t>(i % 64), static_cast<uint16_t>(i),
        words);
    circus::Status status = co_await fs->Run(thread, body, options);
    if (status.ok()) {
      out->latencies_ms.push_back((rt->loop().WallNow() - start).ToMillisF());
    } else if (cfg.resilient) {
      ++out->failed;
      CIRCUS_LOG(LogLevel::kWarning)
          << "txn " << i << " failed: " << status.ToString();
      // The binding may be stale in a way no member is left to flag
      // (SIGKILL, partition): re-import and re-derive the writes troupe
      // before the next probe. A failed rebind just means the next
      // probe fails too and we try again.
      c->Invalidate(cfg.troupe);
      circus::Status rebound = co_await BindReplFs(c, fs, cfg.troupe);
      (void)rebound;
    } else {
      CIRCUS_LOG(LogLevel::kError)
          << "txn " << i << " failed: " << status.ToString();
      out->ok = false;
      break;
    }
    if (cfg.resilient) {
      co_await p->host()->SleepFor(sim::Duration::Millis(50));
    }
  }
  out->finished = true;
}

int RunReplFsClient(const NodeConfig& config, Runtime& runtime,
                    NodeObservability& node_obs, core::RpcProcess* process,
                    binding::BindingCache* cache) {
  apps::replfs::Client fs(process);
  auto progress = std::make_shared<ClientProgress>();
  process->host()->Spawn(
      ReplFsClientLoop(&runtime, process, cache, &fs, config, progress));
  runtime.RunUntil(
      [progress] { return progress->finished || ShutdownRequested(); },
      sim::Duration::Seconds(60 + config.calls));
  if (config.verify) {
    std::printf("verify=%s\n", progress->verified ? "ok" : "failed");
    return FinishNode(runtime, node_obs, progress->verified ? 0 : 1);
  }
  return ReportClient(config, runtime, node_obs, *progress);
}

int RunClient(const NodeConfig& config, Runtime& runtime,
              NodeObservability& node_obs, core::RpcProcess& process) {
  sim::Host* host = process.host();
  binding::BindingClient binding(
      &process, BootstrapRingmasterTroupe(config.ringmaster));
  binding::BindingCache cache(&binding);
  if (config.workload == "replfs") {
    // Deliberately no transparent troupe resolver (see the note above
    // RunReplFsClient: it would rebind the derived writes troupe wrong).
    return RunReplFsClient(config, runtime, node_obs, &process, &cache);
  }
  process.SetClientTroupeResolver(cache.MakeResolver());

  auto progress = std::make_shared<ClientProgress>();
  host->Spawn([](Runtime* rt, core::RpcProcess* p, binding::BindingCache* c,
                 NodeConfig cfg,
                 std::shared_ptr<ClientProgress> out) -> sim::Task<void> {
    const core::ThreadId thread = p->NewRootThread();
    const circus::Bytes args(static_cast<size_t>(cfg.payload), 0x5A);
    core::CallOptions opts;
    if (cfg.collation == "first_come") {
      opts.collation = core::Collation::kFirstCome;
    } else if (cfg.collation == "majority") {
      opts.collation = core::Collation::kMajority;
    }
    const auto procedure =
        static_cast<core::ProcedureNumber>(cfg.procedure);
    for (int i = 0; i < cfg.calls && g_shutdown == 0; ++i) {
      const sim::TimePoint start = rt->loop().WallNow();
      circus::StatusOr<circus::Bytes> result = co_await c->CallByName(
          p, thread, cfg.troupe, procedure, args, opts);
      if (result.ok()) {
        out->latencies_ms.push_back(
            (rt->loop().WallNow() - start).ToMillisF());
      } else if (cfg.resilient) {
        // Availability-probe mode: a failed call is a data point, not
        // the end of the run. The cached binding may be stale in a way
        // no member is left to flag, so drop it before the next probe.
        ++out->failed;
        c->Invalidate(cfg.troupe);
        CIRCUS_LOG(LogLevel::kWarning)
            << "call " << i << " failed: "
            << result.status().ToString();
      } else {
        CIRCUS_LOG(LogLevel::kError)
            << "call " << i << " failed: "
            << result.status().ToString();
        out->ok = false;
        break;
      }
      if (cfg.resilient) {
        // Pace the probes so the run spans the chaos schedule instead
        // of burning all calls before the first fault lands.
        co_await p->host()->SleepFor(sim::Duration::Millis(50));
      }
    }
    out->finished = true;
  }(&runtime, &process, &cache, config, progress));

  runtime.RunUntil(
      [progress] { return progress->finished || ShutdownRequested(); },
      sim::Duration::Seconds(60 + config.calls));
  return ReportClient(config, runtime, node_obs, *progress);
}

// Every role runs on the same stack: the runtime, one host, the node's
// observability, the optional fault fabric, and the protocol process.
int RunNode(const NodeConfig& config) {
  Runtime runtime;
  InstallShutdownHandling(runtime);
  sim::Host* host = runtime.AddHost(config.RoleName(), config.listen.host);
  NodeObservability node_obs(&runtime, host, config);
  if (StatsBindFailed(config, node_obs)) {
    return 1;
  }
  std::optional<FaultWiring> faults =
      WireFaults(runtime, host, node_obs, config);
  if (!faults.has_value()) {
    return 1;
  }
  core::RpcProcess process(faults->protocol_fabric, host,
                           config.listen.port);
  node_obs.SetProcess(&process);
  switch (config.role) {
    case NodeConfig::Role::kRingmaster:
      return RunRingmaster(config, runtime, node_obs, process);
    case NodeConfig::Role::kMember:
      return RunMember(config, runtime, node_obs, process);
    case NodeConfig::Role::kClient:
      return RunClient(config, runtime, node_obs, process);
  }
  return 2;
}

}  // namespace

int cli::Node(int argc, char** argv) {
  std::string config_path;
  const Flag flags[] = {
      {"config-file", &config_path, nullptr,
       "key = value node config (see src/rt/node_config.h)"},
  };
  if (!ParseFlags(argc, argv, flags)) {
    return kUsageError;
  }
  circus::StatusOr<NodeConfig> config = LoadNodeConfig(config_path);
  if (!config.ok()) {
    std::fprintf(stderr, "circus node: %s\n",
                 config.status().ToString().c_str());
    return 2;
  }
  InstallLogSink(*config);
  if (GetLogLevel() > LogLevel::kInfo) {
    SetLogLevel(LogLevel::kInfo);  // a daemon should say what it is doing
  }
  return RunNode(*config);
}

}  // namespace circus::rt
