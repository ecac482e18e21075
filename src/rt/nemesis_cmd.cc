// `circus nemesis`: a live fault-injection supervisor for a real
// loopback testbed. It spawns `circus node` processes from its own
// executable (one ringmaster, M members, one resilient client),
// generates the seeded chaos schedule (src/chaos/schedule.h) that the
// simulator's chaos harness uses, and executes it against the *real*
// processes:
//
//   kCrashMember   SIGKILL a member, restart it 3 s later under a new
//                  node_name (fresh trace shard, same listen
//                  port — the clock-seeded identifier rule is what
//                  keeps peers' duplicate suppression from eating the
//                  reborn process's calls);
//   kPartition     a bidirectional endpoint partition, installed on
//                  every node's fault control port (faults_port=);
//   kLossBurst     network-wide loss + duplication probabilities;
//   kLatencySpike  exponential extra delay (jitter_ms);
//   kClockSkew     skipped — a real testbed shares one kernel clock.
//
// After the schedule drains it heals everything, waits for the troupe
// to settle, then runs two oracles:
//
//   1. convergence — a fresh unanimous-collation client calls the
//      counter procedure; unanimous collation fails unless every
//      member (including any restarted one) returns identical state;
//   2. wire audit — every incarnation's trace shard (which carries its
//      packets), in spawn order, replayed through the obs::wire
//      Section 4.2 auditor.
//
// The availability line parsed from the resilient client
// (calls=/ok=/failed=) plus both oracle results go to a JSON summary
// (--json PATH) that scripts/check_chaos_rt.sh aggregates into
// BENCH_chaos_rt.json. Exit is nonzero on any audit violation, failed
// convergence, or a node death the schedule did not order.
//
// Usage: `circus nemesis --help`; every flag has a default.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/chaos/schedule.h"
#include "src/msg/paired_endpoint.h"
#include "src/net/address.h"
#include "src/obs/wire.h"
#include "src/rt/cli.h"
#include "src/rt/udp_query.h"
#include "src/sim/time.h"

namespace circus::rt {
namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

int64_t MonotonicNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SleepMillis(int ms) {
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000;
  nanosleep(&ts, nullptr);
}

net::NetAddress Loopback(uint16_t port) {
  return net::NetAddress{0x7F000001u, port};
}

// ---------------------------------------------------------- processes --

struct NodeProc {
  std::string base_name;  // "member-38402"; incarnations append ".rK"
  std::string role;       // config role string
  uint16_t port = 0;
  uint16_t stats_port = 0;
  uint16_t faults_port = 0;
  std::string extra;  // role-specific config lines
  pid_t pid = -1;
  int restarts = 0;
  bool expect_death = false;  // we SIGKILLed it; a restart is scheduled
  std::vector<std::string> shards;  // trace shards, in incarnation order
};

struct Testbed {
  std::string dir;
  uint64_t seed = 0;
  std::string workload = "echo";
  NodeProc ringmaster;
  std::vector<NodeProc> members;
  NodeProc client;
  std::vector<std::string> unexpected;  // deaths the schedule didn't order
};

std::string IncarnationName(const NodeProc& node) {
  if (node.restarts == 0) {
    return node.base_name;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".r%d", node.restarts);
  return node.base_name + buf;
}

std::string LogPath(const Testbed& bed, const NodeProc& node) {
  return bed.dir + "/" + IncarnationName(node) + ".log";
}

// Writes the incarnation's config file and returns its path. Every
// incarnation gets a distinct node_name so its trace shard lands in a
// fresh file instead of clobbering the one its SIGKILLed predecessor
// left behind (the audit wants both).
std::string WriteConfig(const Testbed& bed, const NodeProc& node,
                        uint64_t fault_seed) {
  const std::string name = IncarnationName(node);
  const std::string path = bed.dir + "/" + name + ".conf";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "nemesis: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(2);
  }
  std::fprintf(f, "role = %s\nlisten = 127.0.0.1:%u\nnode_name = %s\n",
               node.role.c_str(), node.port, name.c_str());
  std::fprintf(f, "trace_dir = %s\n", bed.dir.c_str());
  if (node.stats_port != 0) {
    std::fprintf(f, "stats_port = %u\n", node.stats_port);
  }
  if (node.faults_port != 0) {
    std::fprintf(f, "faults_port = %u\nfault_seed = %" PRIu64 "\n",
                 node.faults_port, fault_seed);
  }
  std::fputs(node.extra.c_str(), f);
  std::fclose(f);
  return path;
}

// Runs `circus node CONF` from this very executable.
pid_t SpawnProcess(const std::string& conf, const std::string& log_path) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "nemesis: fork: %s\n", std::strerror(errno));
    std::exit(2);
  }
  if (pid == 0) {
    const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, 1);
      dup2(fd, 2);
      close(fd);
    }
    execl("/proc/self/exe", "circus", "node", conf.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

void SpawnNode(Testbed& bed, NodeProc& node) {
  // Per-node fault seeds stay a pure function of the schedule seed (so
  // a run is reproducible) but differ across nodes (so their fault
  // fabrics don't make lock-step decisions).
  const uint64_t fault_seed = bed.seed ^ (uint64_t{node.port} << 20);
  const std::string conf = WriteConfig(bed, node, fault_seed);
  node.pid = SpawnProcess(conf, LogPath(bed, node));
  node.expect_death = false;
  node.shards.push_back(bed.dir + "/" + IncarnationName(node) +
                        ".trace.jsonl");
}

std::vector<NodeProc*> AllNodes(Testbed& bed) {
  std::vector<NodeProc*> nodes;
  nodes.push_back(&bed.ringmaster);
  for (NodeProc& m : bed.members) {
    nodes.push_back(&m);
  }
  nodes.push_back(&bed.client);
  return nodes;
}

// Reaps exited children. A death we ordered (expect_death) is the
// schedule doing its job; anything else is a finding and fails the run.
void ReapChildren(Testbed& bed) {
  for (;;) {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, WNOHANG);
    if (pid <= 0) {
      return;
    }
    for (NodeProc* node : AllNodes(bed)) {
      if (node->pid != pid) {
        continue;
      }
      node->pid = -1;
      if (!node->expect_death) {
        char what[160];
        std::snprintf(what, sizeof(what), "%s died unexpectedly (status %d)",
                      IncarnationName(*node).c_str(), status);
        std::fprintf(stderr, "nemesis: %s\n", what);
        bed.unexpected.push_back(what);
      }
    }
  }
}

void KillEverything(Testbed& bed) {
  for (NodeProc* node : AllNodes(bed)) {
    if (node->pid > 0) {
      kill(node->pid, SIGKILL);
      waitpid(node->pid, nullptr, 0);
      node->pid = -1;
    }
  }
}

// ------------------------------------------------------- fault plane --

// The network-wide plan currently in force, so a freshly restarted
// member's fault fabric can be brought up to date (its predecessor's
// plan died with the process).
struct ActivePlan {
  double loss = 0.0;
  double dup = 0.0;
  double jitter_ms = 0.0;
  std::vector<std::string> island;  // partitioned "host:port" endpoints
};

void SendFault(const NodeProc& node, const std::string& command) {
  if (node.faults_port == 0 || node.pid <= 0) {
    return;
  }
  std::optional<std::string> reply =
      UdpQuery(Loopback(node.faults_port), command, 400, /*tries=*/3);
  if (!reply.has_value()) {
    std::fprintf(stderr, "nemesis: no fault-control reply from %s for '%s'\n",
                 IncarnationName(node).c_str(), command.c_str());
  } else if (reply->rfind("err", 0) == 0) {
    std::fprintf(stderr, "nemesis: %s rejected '%s': %s",
                 IncarnationName(node).c_str(), command.c_str(),
                 reply->c_str());
  }
}

void BroadcastFault(Testbed& bed, const std::string& command) {
  for (NodeProc* node : AllNodes(bed)) {
    SendFault(*node, command);
  }
}

std::string PartitionCommand(const std::vector<std::string>& island) {
  std::string command = "partition";
  for (const std::string& endpoint : island) {
    command += " " + endpoint;
  }
  return command;
}

std::vector<std::string> PlanCommands(const ActivePlan& plan) {
  char buf[256];
  std::vector<std::string> commands;
  std::snprintf(buf, sizeof(buf), "loss %.4f", plan.loss);
  commands.push_back(buf);
  std::snprintf(buf, sizeof(buf), "dup %.4f", plan.dup);
  commands.push_back(buf);
  std::snprintf(buf, sizeof(buf), "jitter_ms %.3f", plan.jitter_ms);
  commands.push_back(buf);
  commands.push_back(plan.island.empty() ? "heal"
                                          : PartitionCommand(plan.island));
  return commands;
}

// --------------------------------------------------------- readiness --

bool WaitForHealth(const NodeProc& node, const std::string& needle,
                   int budget_ms) {
  const int64_t deadline = MonotonicNanos() + int64_t{budget_ms} * 1000000;
  while (MonotonicNanos() < deadline && g_stop == 0) {
    std::optional<std::string> reply =
        UdpQuery(Loopback(node.stats_port), "health", 300);
    if (reply.has_value() && reply->find(needle) != std::string::npos &&
        reply->find("troupe unbound") == std::string::npos) {
      return true;
    }
    SleepMillis(100);
  }
  return false;
}

// ------------------------------------------------------------ result --

struct RunResult {
  uint64_t seed = 0;
  uint64_t schedule_digest = 0;
  int actions = 0;
  int kills = 0;
  int partitions = 0;
  int loss_bursts = 0;
  int latency_spikes = 0;
  int restarts = 0;
  size_t calls = 0;
  size_t ok = 0;
  size_t failed = 0;
  bool client_reported = false;
  bool converged = false;
  int convergence_attempts = 0;
  size_t violations = 0;
  uint64_t audit_records = 0;
  size_t completed_calls = 0;
  bool audit_complete = true;
  size_t captures = 0;  // trace shards audited
  size_t unexpected_deaths = 0;
  double wall_s = 0.0;

  bool Passed() const {
    return client_reported && calls > 0 && converged && violations == 0 &&
           unexpected_deaths == 0;
  }
};

void WriteJson(const RunResult& r, const std::string& path) {
  FILE* f = path.empty() ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "nemesis: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  const double availability =
      r.calls > 0 ? static_cast<double>(r.ok) / static_cast<double>(r.calls)
                  : 0.0;
  std::fprintf(f,
               "{\"seed\": %" PRIu64 ", \"schedule_digest\": %" PRIu64
               ", \"actions\": %d,\n"
               " \"kills\": %d, \"partitions\": %d, \"loss_bursts\": %d, "
               "\"latency_spikes\": %d, \"restarts\": %d,\n"
               " \"calls\": %zu, \"ok\": %zu, \"failed\": %zu, "
               "\"availability\": %.4f,\n"
               " \"converged\": %s, \"convergence_attempts\": %d,\n"
               " \"violations\": %zu, \"audit_records\": %" PRIu64
               ", \"completed_calls\": %zu, \"audit_complete\": %s,\n"
               " \"captures\": %zu, \"unexpected_deaths\": %zu, "
               "\"wall_s\": %.1f, \"passed\": %s}\n",
               r.seed, r.schedule_digest, r.actions, r.kills, r.partitions,
               r.loss_bursts, r.latency_spikes, r.restarts, r.calls, r.ok,
               r.failed, availability, r.converged ? "true" : "false",
               r.convergence_attempts, r.violations, r.audit_records,
               r.completed_calls, r.audit_complete ? "true" : "false",
               r.captures, r.unexpected_deaths, r.wall_s,
               r.Passed() ? "true" : "false");
  if (f != stdout) {
    std::fclose(f);
  }
}

// -------------------------------------------------------------- main --

// Blocks until `pid` exits or `budget_ms` passes; returns the exit code
// (or -1 on timeout / abnormal exit).
int AwaitExit(pid_t pid, int budget_ms) {
  const int64_t deadline = MonotonicNanos() + int64_t{budget_ms} * 1000000;
  for (;;) {
    int status = 0;
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (MonotonicNanos() >= deadline || g_stop != 0) {
      return -1;
    }
    SleepMillis(50);
  }
}

// The convergence oracle: a short-lived unanimous-collation client
// calling the counter procedure. Unanimous collation rejects the reply
// set unless every member answered with identical bytes, so three green
// calls mean every member (restarted ones included) holds the same
// module state and advances it in lock step.
bool RunConvergenceClient(Testbed& bed, int attempt) {
  NodeProc verify;
  verify.role = "client";
  verify.port = static_cast<uint16_t>(bed.client.port + 1 + attempt);
  char name[64];
  std::snprintf(name, sizeof(name), "verify-%u", verify.port);
  verify.base_name = name;
  char extra[256];
  if (bed.workload == "replfs") {
    // The replfs oracle commits one known block and reads it back with
    // unanimous collation (read-your-writes across the healed troupe).
    std::snprintf(extra, sizeof(extra),
                  "ringmaster = 127.0.0.1:%u\ntroupe = chaos\n"
                  "workload = replfs\nverify = 1\npayload = 16\n",
                  bed.ringmaster.port);
  } else {
    std::snprintf(extra, sizeof(extra),
                  "ringmaster = 127.0.0.1:%u\ntroupe = chaos\n"
                  "calls = 3\npayload = 16\ncollation = unanimous\n"
                  "procedure = 1\n",
                  bed.ringmaster.port);
  }
  verify.extra = extra;
  SpawnNode(bed, verify);
  const int code = AwaitExit(verify.pid, 30000);
  if (code != 0 && verify.pid > 0) {
    kill(verify.pid, SIGKILL);
    waitpid(verify.pid, nullptr, 0);
  }
  verify.pid = -1;
  // Fold the verifier's shard into the audit set: its calls are
  // protocol traffic like any other and must survive the same rules.
  if (code == 0) {
    bed.client.shards.push_back(bed.dir + "/" + verify.base_name +
                                ".trace.jsonl");
  }
  return code == 0;
}

size_t FileSize(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) {
    return 0;
  }
  return static_cast<size_t>(st.st_size);
}

// Parses the resilient client's availability line:
//   calls=N ok=N failed=N mean_ms=... min_ms=... max_ms=...
bool ParseClientReport(const std::string& log_path, RunResult* result) {
  FILE* f = std::fopen(log_path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  char line[512];
  bool found = false;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    size_t calls = 0;
    size_t ok = 0;
    size_t failed = 0;
    if (std::sscanf(line, "calls=%zu ok=%zu failed=%zu", &calls, &ok,
                    &failed) == 3) {
      result->calls = calls;
      result->ok = ok;
      result->failed = failed;
      found = true;
    }
  }
  std::fclose(f);
  return found;
}

}  // namespace

int cli::Nemesis(int argc, char** argv) {
  uint64_t seed = 1;
  std::string dir;
  int members = 3;
  int horizon_s = 25;
  int actions = 6;
  int base_port = 38400;
  std::string json;
  std::string workload = "echo";
  const Flag flags[] = {
      {"--seed", &seed, "N", "chaos schedule seed (default 1)"},
      {"--dir", &dir, "PATH",
       "configs, logs and trace shards (default: a fresh /tmp dir)"},
      {"--members", &members, "M", "troupe members (default 3)", 2, 8},
      {"--horizon_s", &horizon_s, "S", "schedule horizon (default 25)",
       10},
      {"--actions", &actions, "N", "fault actions (default 6)", 1},
      {"--base_port", &base_port, "P",
       "first of the testbed's ports (default 38400)", 1, 65535},
      {"--json", &json, "PATH", "summary JSON (default stdout)"},
      {"--workload", &workload, "echo|replfs",
       "troupe application (default echo)"},
  };
  if (!ParseFlags(argc, argv, flags)) {
    return kUsageError;
  }
  if (workload != "echo" && workload != "replfs") {
    return UsageError(argv[0], flags, "--workload must be echo or replfs");
  }
  struct sigaction sa {};
  sa.sa_handler = HandleStop;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // SIGKILLed children must not leave the testbed wedged on a dead pipe.
  std::signal(SIGPIPE, SIG_IGN);

  if (dir.empty()) {
    char tmpl[] = "/tmp/circus-nemesis.XXXXXX";
    const char* made = mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "nemesis: mkdtemp: %s\n", std::strerror(errno));
      return 2;
    }
    dir = made;
  }

  const int64_t start_ns = MonotonicNanos();
  RunResult result;
  result.seed = seed;

  // ------------------------------------------------------ the testbed --
  Testbed bed;
  bed.dir = dir;
  bed.seed = seed;
  bed.workload = workload;
  const auto port_at = [&](int i) {
    return static_cast<uint16_t>(base_port + i);
  };
  bed.ringmaster.role = "ringmaster";
  bed.ringmaster.port = port_at(0);
  bed.ringmaster.stats_port = port_at(40);
  bed.ringmaster.faults_port = port_at(80);
  bed.ringmaster.base_name = "ringmaster-" + std::to_string(port_at(0));
  for (int m = 1; m <= members; ++m) {
    NodeProc member;
    member.role = "member";
    member.port = port_at(m);
    member.stats_port = port_at(40 + m);
    member.faults_port = port_at(80 + m);
    member.base_name = "member-" + std::to_string(member.port);
    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  "ringmaster = 127.0.0.1:%u\ntroupe = chaos\n"
                  "interface = chaos\nworkload = %s\n",
                  bed.ringmaster.port, bed.workload.c_str());
    member.extra = extra;
    bed.members.push_back(member);
  }
  bed.client.role = "client";
  bed.client.port = port_at(members + 1);
  bed.client.stats_port = port_at(40 + members + 1);
  bed.client.faults_port = port_at(80 + members + 1);
  bed.client.base_name = "client-" + std::to_string(bed.client.port);
  if (bed.workload == "replfs") {
    // The availability probe: one single-block replfs transaction per
    // probe (broadcast staging + troupe commit), paced at 50 ms.
    char extra[200];
    std::snprintf(extra, sizeof(extra),
                  "ringmaster = 127.0.0.1:%u\ntroupe = chaos\n"
                  "workload = replfs\ncalls = 1000000\npayload = 16\n"
                  "resilient = 1\n",
                  bed.ringmaster.port);
    bed.client.extra = extra;
  } else {
    // The availability probe: echo calls (stateless, so mid-chaos
    // partial deliveries cannot diverge member state) paced at 50 ms,
    // first-come collation so one reachable member is enough.
    char extra[200];
    std::snprintf(extra, sizeof(extra),
                  "ringmaster = 127.0.0.1:%u\ntroupe = chaos\n"
                  "calls = 1000000\npayload = 32\nresilient = 1\n"
                  "collation = first_come\nprocedure = 0\n",
                  bed.ringmaster.port);
    bed.client.extra = extra;
  }

  std::fprintf(stderr,
               "nemesis: seed=%" PRIu64
               " dir=%s members=%d horizon=%ds workload=%s\n",
               seed, bed.dir.c_str(), members, horizon_s,
               bed.workload.c_str());

  SpawnNode(bed, bed.ringmaster);
  SleepMillis(300);
  for (NodeProc& member : bed.members) {
    SpawnNode(bed, member);
    // Members join sequentially: the get_state handshake wants the
    // previous member serving before the next one copies state from it.
    if (!WaitForHealth(member, "troupe ", 15000)) {
      std::fprintf(stderr, "nemesis: %s never joined\n",
                   member.base_name.c_str());
      KillEverything(bed);
      return 2;
    }
  }
  SpawnNode(bed, bed.client);
  SleepMillis(500);
  ReapChildren(bed);
  if (!bed.unexpected.empty() || g_stop != 0) {
    KillEverything(bed);
    return 2;
  }
  std::fprintf(stderr, "nemesis: testbed up (%d members joined)\n",
               members);

  // ----------------------------------------------------- the schedule --
  chaos::ScheduleOptions schedule_options;
  schedule_options.horizon = sim::Duration::Seconds(horizon_s);
  schedule_options.min_start = sim::Duration::Seconds(3);
  schedule_options.actions = actions;
  schedule_options.skew_weight = 0;  // one kernel clock on loopback
  const chaos::Schedule schedule =
      chaos::GenerateSchedule(seed, schedule_options);
  result.schedule_digest = schedule.Digest();
  result.actions = static_cast<int>(schedule.actions.size());
  std::fprintf(stderr, "nemesis: schedule digest=%" PRIu64 "\n%s",
               schedule.Digest(), schedule.ToString().c_str());

  // Wall-clock event queue, nanoseconds since testbed start. Durations
  // are clamped to [2 s, 8 s]: long enough for real retransmit timers
  // to fire, short enough that one run stays interactive.
  const auto clamp_duration = [](sim::Duration d) {
    const int64_t ns =
        std::clamp(d.nanos(), int64_t{2000000000}, int64_t{8000000000});
    return sim::Duration::Nanos(ns);
  };
  std::multimap<int64_t, std::function<void()>> events;
  ActivePlan plan;

  const auto restart_member = [&](NodeProc* member) {
    member->restarts += 1;
    ++result.restarts;
    SpawnNode(bed, *member);
    std::fprintf(stderr, "nemesis: restarted %s (pid %d)\n",
                 IncarnationName(*member).c_str(), member->pid);
    // Its fresh fault fabric starts with a clean plan; bring it in
    // line with whatever chaos is still in force network-wide.
    for (const std::string& command : PlanCommands(plan)) {
      SendFault(*member, command);
    }
  };

  for (const chaos::FaultAction& action : schedule.actions) {
    const int64_t at_ns = action.at.nanos();
    const int64_t end_ns = at_ns + clamp_duration(action.duration).nanos();
    switch (action.kind) {
      case chaos::FaultKind::kCrashMember: {
        events.emplace(at_ns, [&, action] {
          // Victim by rank into the currently-live members; if every
          // member is already down-and-restarting, skip the kill.
          const size_t count = bed.members.size();
          for (size_t probe = 0; probe < count; ++probe) {
            NodeProc& victim =
                bed.members[(action.victim_rank + probe) % count];
            if (victim.pid <= 0 || victim.expect_death) {
              continue;
            }
            std::fprintf(stderr, "nemesis: SIGKILL %s (pid %d)\n",
                         IncarnationName(victim).c_str(), victim.pid);
            victim.expect_death = true;
            kill(victim.pid, SIGKILL);
            ++result.kills;
            // Restart 3 s later: past the silence budget, so peers
            // have declared the old incarnation crashed, and the
            // reborn process's clock-seeded call numbers are put to
            // a real test against their duplicate-suppression state.
            NodeProc* victim_ptr = &victim;
            events.emplace(
                MonotonicNanos() - start_ns + 3000000000,
                [&restart_member, victim_ptr] { restart_member(victim_ptr); });
            return;
          }
          std::fprintf(stderr, "nemesis: crash skipped, no live victim\n");
        });
        break;
      }
      case chaos::FaultKind::kPartition: {
        events.emplace(at_ns, [&, action] {
          const size_t count = bed.members.size();
          const size_t island =
              std::min<size_t>(std::max<uint32_t>(action.island_size, 1),
                               count - 1);
          plan.island.clear();
          for (size_t i = 0; i < island; ++i) {
            const NodeProc& member =
                bed.members[(action.victim_rank + i) % count];
            plan.island.push_back("127.0.0.1:" +
                                  std::to_string(member.port));
          }
          const std::string partition = PartitionCommand(plan.island);
          std::fprintf(stderr, "nemesis: %s\n", partition.c_str());
          BroadcastFault(bed, partition);
          ++result.partitions;
        });
        events.emplace(end_ns, [&] {
          plan.island.clear();
          std::fprintf(stderr, "nemesis: heal\n");
          BroadcastFault(bed, "heal");
        });
        break;
      }
      case chaos::FaultKind::kLossBurst: {
        events.emplace(at_ns, [&, action] {
          // Cap the drop probability: the schedule generator draws up
          // to 0.9 for the simulator, but a real client probing at
          // 50 ms through 90% loss measures nothing but its own
          // retransmit budget.
          plan.loss = std::min(action.loss, 0.4);
          plan.dup = std::min(action.duplicate, 0.3);
          char loss_cmd[64];
          char dup_cmd[64];
          std::snprintf(loss_cmd, sizeof(loss_cmd), "loss %.4f", plan.loss);
          std::snprintf(dup_cmd, sizeof(dup_cmd), "dup %.4f", plan.dup);
          std::fprintf(stderr, "nemesis: %s %s\n", loss_cmd, dup_cmd);
          BroadcastFault(bed, loss_cmd);
          BroadcastFault(bed, dup_cmd);
          ++result.loss_bursts;
        });
        events.emplace(end_ns, [&] {
          plan.loss = 0.0;
          plan.dup = 0.0;
          std::fprintf(stderr, "nemesis: loss burst over\n");
          BroadcastFault(bed, "loss 0");
          BroadcastFault(bed, "dup 0");
        });
        break;
      }
      case chaos::FaultKind::kLatencySpike: {
        events.emplace(at_ns, [&, action] {
          plan.jitter_ms = action.extra_delay.ToMillisF();
          char command[64];
          std::snprintf(command, sizeof(command), "jitter_ms %.3f",
                        plan.jitter_ms);
          std::fprintf(stderr, "nemesis: %s\n", command);
          BroadcastFault(bed, command);
          ++result.latency_spikes;
        });
        events.emplace(end_ns, [&] {
          plan.jitter_ms = 0.0;
          std::fprintf(stderr, "nemesis: latency spike over\n");
          BroadcastFault(bed, "jitter_ms 0");
        });
        break;
      }
      case chaos::FaultKind::kClockSkew:
        break;  // skew_weight=0; kernel clock is shared anyway
    }
  }

  // Drain the queue in wall-clock order; restarts inserted mid-drain
  // land back in the same queue.
  while (!events.empty() && g_stop == 0) {
    const int64_t due = events.begin()->first;
    while (MonotonicNanos() - start_ns < due && g_stop == 0) {
      SleepMillis(50);
      ReapChildren(bed);
    }
    auto it = events.begin();
    const std::function<void()> fire = it->second;
    events.erase(it);
    fire();
  }

  // -------------------------------------------- heal, settle, verify --
  plan = ActivePlan{};
  BroadcastFault(bed, "clear");
  BroadcastFault(bed, "heal");
  std::fprintf(stderr, "nemesis: schedule drained, settling\n");
  for (int i = 0; i < 50 && g_stop == 0; ++i) {
    SleepMillis(100);
    ReapChildren(bed);
  }

  // Every member (restarted incarnations included) must be back in the
  // troupe before the convergence probe means anything.
  for (NodeProc& member : bed.members) {
    if (!WaitForHealth(member, "troupe ", 20000)) {
      std::fprintf(stderr, "nemesis: %s did not rejoin after heal\n",
                   IncarnationName(member).c_str());
    }
  }

  for (int attempt = 0; attempt < 3 && g_stop == 0; ++attempt) {
    result.convergence_attempts = attempt + 1;
    if (RunConvergenceClient(bed, attempt)) {
      result.converged = true;
      break;
    }
    std::fprintf(stderr, "nemesis: convergence attempt %d failed\n",
                 attempt + 1);
    SleepMillis(2000);
  }

  // ------------------------------------------------ collect and audit --
  for (NodeProc* node : AllNodes(bed)) {
    if (node->pid > 0) {
      node->expect_death = true;
      kill(node->pid, SIGTERM);
    }
  }
  for (NodeProc* node : AllNodes(bed)) {
    if (node->pid > 0) {
      if (AwaitExit(node->pid, 10000) < 0 && node->pid > 0) {
        kill(node->pid, SIGKILL);
      }
      waitpid(node->pid, nullptr, 0);
      node->pid = -1;
    }
  }
  result.unexpected_deaths = bed.unexpected.size();

  const std::string client_log = bed.dir + "/" + bed.client.base_name + ".log";
  result.client_reported = ParseClientReport(client_log, &result);
  if (!result.client_reported) {
    std::fprintf(stderr, "nemesis: no availability line in %s\n",
                 client_log.c_str());
  }

  // Shard paths in spawn order: per node, each incarnation after its
  // predecessor, so the auditor sees an incarnation's traffic in time
  // order (this is what lets it check call-identifier reuse across the
  // SIGKILL/restart boundary). A process that died before opening its
  // shard leaves an empty or missing file; skip those rather than fail
  // the read.
  std::vector<std::string> shard_paths;
  for (NodeProc* node : AllNodes(bed)) {
    for (const std::string& path : node->shards) {
      if (FileSize(path) > 0) {
        shard_paths.push_back(path);
      } else {
        std::fprintf(stderr, "nemesis: skipping empty shard %s\n",
                     path.c_str());
      }
    }
  }
  result.captures = shard_paths.size();
  // Default endpoint options are what `circus node` runs with. The member
  // address list stays empty: members legitimately exchange get_state
  // during joins and rejoins, which the member-to-member check would
  // misread as a Section 4.3.3 violation.
  circus::StatusOr<obs::wire::AuditReport> audit =
      obs::wire::AuditShardFiles(
          shard_paths, obs::wire::AuditOptionsFor(msg::EndpointOptions{}));
  if (!audit.ok()) {
    std::fprintf(stderr, "nemesis: audit failed: %s\n",
                 audit.status().ToString().c_str());
    result.violations = 1;
  } else {
    result.violations = audit->violations.size();
    result.audit_records = audit->records;
    result.audit_complete = audit->complete;
    result.completed_calls = audit->CompletedCalls();
    std::fprintf(stderr, "%s", audit->Render(20, false).c_str());
  }

  result.wall_s =
      static_cast<double>(MonotonicNanos() - start_ns) / 1e9;
  WriteJson(result, json);
  std::fprintf(stderr,
               "nemesis: %s (calls=%zu ok=%zu failed=%zu violations=%zu "
               "converged=%d restarts=%d)\n",
               result.Passed() ? "PASS" : "FAIL", result.calls, result.ok,
               result.failed, result.violations, result.converged ? 1 : 0,
               result.restarts);
  return result.Passed() ? 0 : 1;
}

}  // namespace circus::rt
