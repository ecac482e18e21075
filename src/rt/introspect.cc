#include "src/rt/introspect.h"

#include <sys/resource.h>
#include <time.h>

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/marshal/marshal.h"
#include "src/msg/segment.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace circus::rt {

namespace {

std::string Truncated(std::string text) {
  if (text.size() <= kMaxQueryReplyBytes) {
    return text;
  }
  constexpr std::string_view kMark = "...\n";
  text.resize(kMaxQueryReplyBytes - kMark.size());
  // Cut at a line boundary when there is one: consumers that validate
  // line formats (check_realnet) must never see a half metric line.
  const size_t last_newline = text.rfind('\n');
  if (last_newline != std::string::npos) {
    text.resize(last_newline + 1);
  }
  text += kMark;
  return text;
}

// Paged reply framing: "chunk <offset> <next>\n" (next = "end" on the
// last chunk) followed by the bytes of `text` starting at `offset`,
// bounded to one datagram. Clients re-query with <next> and
// concatenate the bodies to reassemble the full text.
std::string Paged(const std::string& text, size_t offset) {
  if (offset > text.size()) {
    offset = text.size();
  }
  char header[64];
  size_t body = text.size() - offset;
  int header_len = 0;
  for (;;) {
    const size_t next = offset + body;
    header_len =
        next == text.size()
            ? std::snprintf(header, sizeof(header), "chunk %zu end\n", offset)
            : std::snprintf(header, sizeof(header), "chunk %zu %zu\n", offset,
                            next);
    if (static_cast<size_t>(header_len) + body <= kMaxQueryReplyBytes) {
      break;
    }
    // Shrinking the body can only shrink the header, so this converges.
    body = kMaxQueryReplyBytes - static_cast<size_t>(header_len);
  }
  std::string reply(header, static_cast<size_t>(header_len));
  reply.append(text, offset, body);
  return reply;
}

// Strictly parses the decimal offset of a paged query form.
bool ParseOffset(std::string_view s, size_t* out) {
  if (s.empty() || s.size() > 12) {
    return false;
  }
  size_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  *out = value;
  return true;
}

std::string_view TrimView(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r' || s.front() == '\n')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

sim::Task<void> ServeStats(NodeObservability* node,
                           net::DatagramSocket* socket) {
  for (;;) {
    net::Datagram request = co_await socket->Receive();
    std::string query(request.payload.begin(), request.payload.end());
    std::string reply = node->HandleQuery(query);
    circus::Bytes bytes(reply.begin(), reply.end());
    co_await socket->Send(request.source, std::move(bytes));
  }
}

sim::Task<void> PeriodicFlush(NodeObservability* node, sim::Host* host) {
  for (;;) {
    co_await host->SleepFor(sim::Duration::Millis(250));
    node->SampleUtilization();
    node->FlushShard();  // no-op when nothing is pending
  }
}

// CPU this thread has burned, per CLOCK_THREAD_CPUTIME_ID. The whole
// node is single-threaded, so thread CPU == process CPU, but the thread
// clock stays honest if that ever changes.
int64_t ThreadCpuNanos() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    return 0;
  }
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Context switches from getrusage: voluntary ones are epoll sleeps,
// involuntary ones mean the scheduler preempted a busy loop.
uint64_t ContextSwitches() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(ru.ru_nvcsw) +
         static_cast<uint64_t>(ru.ru_nivcsw);
}

// Deeper than the ShardWriter default: a node under replicated-call
// load emits tens of thousands of events per second, and dropping the
// oldest unflushed lines must stay a genuine overload signal, not a
// steady-state one (losing the startup binding exchange would cost the
// merge its clock-alignment samples against the ringmaster).
constexpr size_t kNodeShardCapacity = 65536;

}  // namespace

std::string ShardPathFor(const NodeConfig& config) {
  if (config.trace_dir.empty()) {
    return "";
  }
  return config.trace_dir + "/" + config.DisplayName() + ".trace.jsonl";
}

std::string MetricsPathFor(const NodeConfig& config) {
  if (config.trace_dir.empty()) {
    return "";
  }
  return config.trace_dir + "/" + config.DisplayName() + ".metrics.prom";
}

NodeObservability::NodeObservability(Runtime* runtime, sim::Host* host,
                                     const NodeConfig& config)
    : runtime_(runtime), config_(config) {
  obs::LatencyAttributor::Options lat_options;
  lat_options.slow_call_threshold_ns =
      static_cast<int64_t>(config.slow_call_us) * 1000;
  attributor_ = std::make_unique<obs::LatencyAttributor>(lat_options);
  attributor_->Attach(&runtime->bus());

  obs::ShardInfo info;
  info.node = config.DisplayName();
  info.role = config.RoleName();
  info.address = config.listen.ToString();
  info.incarnation = runtime->incarnation();
  info.clock = "realtime";
  shard_ = std::make_unique<obs::ShardWriter>(
      ShardPathFor(config), std::move(info), kNodeShardCapacity);
  if (!shard_->ok()) {
    status_ = circus::Status(circus::ErrorCode::kUnavailable,
                             "cannot write trace shard " + shard_->path());
  }
  shard_->Attach(&runtime->bus());

  WireUtilizationProbes();
  SampleUtilization();  // baseline every probe at construction

  // Always spawned: beyond shard flushing it drives the 250 ms
  // utilization sampling that feeds kSaturation events, the health
  // `load` grade, and the `util` query.
  host->Spawn(PeriodicFlush(this, host));

  if (config.stats_port != 0) {
    circus::StatusOr<std::unique_ptr<net::DatagramSocket>> socket =
        net::DatagramSocket::Open(&runtime->fabric(), host,
                                  config.stats_port);
    if (!socket.ok()) {
      stats_status_ = socket.status();
      if (status_.ok()) {
        status_ = socket.status();
      }
    } else {
      stats_socket_ = std::move(*socket);
      host->Spawn(ServeStats(this, stats_socket_.get()));
    }
  }
}

NodeObservability::~NodeObservability() { FlushShard(); }

void NodeObservability::WireUtilizationProbes() {
  monitor_.SetBus(&runtime_->bus());
  monitor_.SetMetrics(&runtime_->metrics());
  IoLoop* loop = &runtime_->loop();
  sim::Executor* executor = &runtime_->executor();
  monitor_.AddResource(
      "rt.loop", [loop, executor, prev = loop->stats()](int64_t) mutable {
        obs::ResourceSample sample;
        const IoLoopStats now = loop->stats();
        const int64_t busy = now.busy_ns - prev.busy_ns;
        const int64_t idle = now.idle_ns - prev.idle_ns;
        if (busy + idle > 0) {
          sample.utilization =
              static_cast<double>(busy) / static_cast<double>(busy + idle);
        }
        sample.ops = now.wakeups - prev.wakeups;
        sample.queue = static_cast<double>(executor->pending_events());
        prev = now;
        return sample;
      });
  monitor_.AddResource(
      "cpu.process",
      [prev_cpu = ThreadCpuNanos(),
       prev_csw = ContextSwitches()](int64_t window_ns) mutable {
        obs::ResourceSample sample;
        const int64_t cpu = ThreadCpuNanos();
        const uint64_t csw = ContextSwitches();
        if (window_ns > 0) {
          sample.utilization = static_cast<double>(cpu - prev_cpu) /
                               static_cast<double>(window_ns);
        }
        sample.ops = csw - prev_csw;
        prev_cpu = cpu;
        prev_csw = csw;
        return sample;
      });
  UdpFabric* fabric = &runtime_->fabric();
  monitor_.AddResource(
      "net.udp",
      [fabric, prev = fabric->stats()](int64_t) mutable {
        obs::ResourceSample sample;
        const UdpFabricStats now = fabric->stats();
        sample.ops = (now.packets_sent - prev.packets_sent) +
                     (now.packets_delivered - prev.packets_delivered);
        sample.bytes = (now.bytes_sent - prev.bytes_sent) +
                       (now.bytes_delivered - prev.bytes_delivered);
        // EAGAIN/ENOBUFS backpressure drops are send_errors too, so
        // they are already in this sum alongside oversize datagrams and
        // the kernel's receive-queue drops.
        sample.errors = (now.send_errors - prev.send_errors) +
                        (now.truncated - prev.truncated) +
                        (now.kernel_drops - prev.kernel_drops);
        sample.queue =
            static_cast<double>(fabric->TotalReceiveBacklog());
        prev = now;
        return sample;
      },
      obs::ResourceGrading{.high_queue = 64, .saturated_queue = 256});
  monitor_.AddResource(
      "alloc.marshal",
      [prev = marshal::GlobalBufferStats()](int64_t) mutable {
        obs::ResourceSample sample;
        const marshal::BufferStats now = marshal::GlobalBufferStats();
        sample.ops = now.buffers - prev.buffers;
        sample.bytes = now.bytes - prev.bytes;
        prev = now;
        return sample;
      });
  monitor_.AddResource(
      "msg.segment",
      [prev = msg::GlobalSegmentStats()](int64_t) mutable {
        obs::ResourceSample sample;
        const msg::SegmentStats now = msg::GlobalSegmentStats();
        sample.ops = now.segments - prev.segments;
        sample.bytes = now.bytes - prev.bytes;
        prev = now;
        return sample;
      });
  obs::ShardWriter* shard = shard_.get();
  obs::ResourceGrading shard_grading;
  shard_grading.high_queue = static_cast<double>(shard->capacity()) * 0.7;
  shard_grading.saturated_queue =
      static_cast<double>(shard->capacity()) * 0.9;
  monitor_.AddResource(
      "obs.shard",
      [shard, prev_observed = shard->observed(),
       prev_dropped = shard->dropped()](int64_t) mutable {
        obs::ResourceSample sample;
        sample.ops = shard->observed() - prev_observed;
        sample.errors = shard->dropped() - prev_dropped;
        sample.queue = static_cast<double>(shard->pending());
        prev_observed = shard->observed();
        prev_dropped = shard->dropped();
        return sample;
      },
      shard_grading);
}

void NodeObservability::SampleUtilization() {
  monitor_.Sample(runtime_->now().nanos());
}

void NodeObservability::DumpSlowCalls() {
  if (config_.slow_call_us <= 0) {
    return;
  }
  for (const obs::CallExemplar& slow : attributor_->TakeSlowCalls()) {
    obs::Event e;
    e.kind = obs::EventKind::kSlowCall;
    e.time_ns = slow.timeline.collate_ns;
    e.incarnation = runtime_->incarnation();
    e.origin = slow.timeline.client_origin;
    e.thread = slow.timeline.thread;
    e.thread_seq = slow.timeline.seq;
    e.a = static_cast<uint64_t>(slow.timeline.end_to_end_ns());
    e.b = static_cast<uint64_t>(config_.slow_call_us) * 1000;
    e.detail = slow.timeline.ToString();
    // Injected straight into the shard, not published on the bus: a bus
    // subscriber must not re-enter Publish, and the dump is a per-node
    // diagnostic, not a protocol event.
    shard_->Observe(e);
  }
}

void NodeObservability::FlushShard() {
  DumpSlowCalls();
  // Errors are sticky in status() but must not kill a serving node.
  circus::Status flushed = shard_->Flush();
  if (!flushed.ok() && status_.ok()) {
    status_ = flushed;
  }
}

void NodeObservability::FinalFlush() {
  FlushShard();
  const std::string metrics = MetricsText();
  const std::string path = MetricsPathFor(config_);
  if (path.empty()) {
    std::fprintf(stderr, "--- final metrics (%s) ---\n%s",
                 config_.DisplayName().c_str(), metrics.c_str());
    return;
  }
  circus::Status written = obs::WriteStringToFile(path, metrics);
  if (!written.ok() && status_.ok()) {
    status_ = written;
  }
}

std::string NodeObservability::HandleQuery(std::string_view query) {
  const std::string_view q = TrimView(query);
  if (q == "metrics") {
    return Truncated(MetricsText());
  }
  if (q == "health") {
    return Truncated(HealthText());
  }
  if (q == "spans") {
    return Truncated(SpansText());
  }
  if (q == "latency") {
    return Truncated(LatencyText());
  }
  if (q == "util") {
    return Truncated(UtilText());
  }
  const struct {
    std::string_view prefix;
    std::string (NodeObservability::*text)() const;
  } kPagedQueries[] = {
      {"metrics ", &NodeObservability::MetricsText},
      {"spans ", &NodeObservability::SpansText},
      {"latency ", &NodeObservability::LatencyText},
      {"util ", &NodeObservability::UtilText},
  };
  for (const auto& paged : kPagedQueries) {
    if (!q.starts_with(paged.prefix)) {
      continue;
    }
    size_t offset = 0;
    if (!ParseOffset(TrimView(q.substr(paged.prefix.size())), &offset)) {
      return "err bad offset (try: metrics <offset> | spans <offset> | "
             "latency <offset> | util <offset>)\n";
    }
    return Paged((this->*paged.text)(), offset);
  }
  std::string reply = "err unknown query '";
  reply.append(q.substr(0, 32));
  reply += "' (try: metrics | health | spans | latency | util)\n";
  return Truncated(std::move(reply));
}

std::string NodeObservability::MetricsText() const {
  // Shard drop-marker and flush accounting leads the exposition so it
  // survives even when the bare (one-datagram, truncated) reply cuts
  // the registry tail — a shard silently dropping events is exactly
  // the condition an operator queries `metrics` to notice.
  std::string out;
  const struct {
    const char* metric;
    const char* type;
    uint64_t value;
  } kShardSeries[] = {
      {"circus_shard_observed_total", "counter", shard_->observed()},
      {"circus_shard_dropped_total", "counter", shard_->dropped()},
      {"circus_shard_pending_lines", "gauge",
       static_cast<uint64_t>(shard_->pending())},
      {"circus_shard_flushes_total", "counter", shard_->flushes()},
      {"circus_shard_flush_failures_total", "counter",
       shard_->flush_failures()},
  };
  for (const auto& series : kShardSeries) {
    out += std::string("# TYPE ") + series.metric + " " + series.type +
           "\n";
    out += std::string(series.metric) + " " +
           std::to_string(series.value) + "\n";
  }
  out += runtime_->metrics().Snap(runtime_->now().nanos()).ToPrometheus();
  return out;
}

std::string NodeObservability::LatencyText() const {
  return attributor_->ToPrometheus();
}

std::string NodeObservability::UtilText() const {
  return monitor_.ToPrometheus();
}

std::string NodeObservability::HealthText() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "ok %s\nrole %s\naddr %s\n",
                config_.DisplayName().c_str(), config_.RoleName(),
                config_.listen.ToString().c_str());
  out += line;
  std::snprintf(line, sizeof(line), "incarnation %" PRIu64 "\n",
                runtime_->incarnation());
  out += line;
  // The worst saturation grade across every monitored resource — the
  // one-word answer to "is this node running hot".
  std::snprintf(line, sizeof(line), "load %s\n",
                obs::SaturationLevelName(monitor_.WorstLevel()));
  out += line;
  if (process_ == nullptr) {
    out += "troupe unbound\npeers 0\n";
    return out;
  }
  std::snprintf(line, sizeof(line), "troupe %" PRIu64 "\n",
                process_->troupe_id().value);
  out += line;
  const msg::PairedEndpoint& endpoint = process_->endpoint();
  // Graded per-peer states instead of bare liveness:
  //   ok          heard from within two probe intervals;
  //   degraded    silent, but still inside the probe machinery's crash
  //               budget (max_silent_probes probes, probe_interval
  //               apart) — retransmits may still get through;
  //   partitioned the local fault fabric is blocking the path, so the
  //               silence is explained (and expected to heal);
  //   dead        silent past the crash budget with no partition to
  //               blame.
  const sim::Duration probe = endpoint.options().probe_interval;
  const sim::Duration budget =
      probe * endpoint.options().max_silent_probes;
  const sim::TimePoint now = runtime_->now();
  std::snprintf(line, sizeof(line), "peers %zu\n",
                endpoint.PeerActivity().size());
  out += line;
  for (const auto& [peer, last_seen] : endpoint.PeerActivity()) {
    const sim::Duration age = now - last_seen;
    const char* state = "ok";
    if (fault_fabric_ != nullptr &&
        fault_fabric_->PathBlocked(config_.listen, peer)) {
      state = "partitioned";
    } else if (age <= probe * 2) {
      state = "ok";
    } else if (age <= budget) {
      state = "degraded";
    } else {
      state = "dead";
    }
    std::snprintf(line, sizeof(line), "peer %s age_ms=%.0f %s\n",
                  peer.ToString().c_str(), age.ToMillisF(), state);
    out += line;
  }
  return out;
}

std::string NodeObservability::SpansText() const {
  const std::vector<obs::Event> recent = shard_->Recent();
  const std::vector<obs::Span> roots = obs::AssembleSpans(recent);
  if (roots.empty()) {
    return "no spans\n";
  }
  return obs::Render(roots);
}

}  // namespace circus::rt
