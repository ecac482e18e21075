#include "src/net/fault_fabric.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/net/socket.h"

namespace circus::net {
namespace {

// A held-back datagram is released after the next transmit overtakes it;
// the flush timer bounds the inversion when no successor ever comes.
constexpr sim::Duration kReorderFlushAfter = sim::Duration::Millis(20);

bool ParseProbability(std::string_view text, double* out) {
  std::istringstream in{std::string(text)};
  double v = 0.0;
  if (!(in >> v) || v < 0.0 || v > 1.0) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseMillis(std::string_view text, sim::Duration* out) {
  std::istringstream in{std::string(text)};
  double ms = 0.0;
  if (!(in >> ms) || ms < 0.0) {
    return false;
  }
  *out = sim::Duration::MillisF(ms);
  return true;
}

}  // namespace

FaultFabric::FaultFabric(Fabric* inner, sim::Executor* executor,
                         uint64_t seed)
    : inner_(inner), executor_(executor), seed_(seed), rng_(seed) {
  CIRCUS_CHECK(inner != nullptr);
  CIRCUS_CHECK(executor != nullptr);
}

FaultFabric::~FaultFabric() {
  for (uint64_t id : pending_events_) {
    executor_->Cancel(id);
  }
  if (held_flush_event_ != 0) {
    executor_->Cancel(held_flush_event_);
  }
}

HostAddress FaultFabric::AddressOfHost(sim::Host::HostId id) const {
  return inner_->AddressOfHost(id);
}

void FaultFabric::Reseed(uint64_t seed) {
  seed_ = seed;
  rng_ = sim::Rng(seed);
}

void FaultFabric::PartitionEndpoints(std::vector<NetAddress> island) {
  island_.clear();
  island_.insert(island.begin(), island.end());
}

void FaultFabric::Heal() { island_.clear(); }

circus::StatusOr<NetAddress> FaultFabric::Bind(DatagramSocket* socket,
                                               Port port) {
  return inner_->Bind(socket, port);
}

void FaultFabric::Unbind(DatagramSocket* socket) {
  inner_->Unbind(socket);
}

void FaultFabric::JoinGroup(HostAddress group, DatagramSocket* socket) {
  inner_->JoinGroup(group, socket);
}

void FaultFabric::LeaveGroup(HostAddress group, DatagramSocket* socket) {
  inner_->LeaveGroup(group, socket);
}

bool FaultFabric::PartitionBlocks(const Datagram& d) const {
  if (island_.empty()) {
    return false;
  }
  const bool src_in = island_.count(d.source) > 0;
  const bool dst_in =
      !d.destination.is_multicast() && island_.count(d.destination) > 0;
  return src_in != dst_in;
}

void FaultFabric::Transmit(sim::Host* sender, Datagram datagram) {
  // Observe on the inner fabric — that is where the event bus lives —
  // exactly once, before any fault.
  inner_->ObserveSend(sender, datagram);
  ++stats_.transmitted;

  if (PartitionBlocks(datagram)) {
    ++stats_.blocked_by_partition;
    if (decision_log_ != nullptr) {
      decision_log_->push_back("pdrop");
    }
    return;
  }

  // Fixed draw order — drop, duplicate, reorder, jitter — so the
  // decision stream is a pure function of (seed, send sequence),
  // independent of which inner fabric sits underneath.
  if (rng_.Bernoulli(plan_.drop)) {
    ++stats_.dropped;
    if (decision_log_ != nullptr) {
      decision_log_->push_back("drop");
    }
    return;
  }
  const bool duplicate = rng_.Bernoulli(plan_.duplicate);
  const bool reorder = rng_.Bernoulli(plan_.reorder);
  sim::Duration delay = plan_.delay;
  if (plan_.jitter > sim::Duration::Zero()) {
    delay = delay + rng_.Exponential(plan_.jitter);
  }

  if (decision_log_ != nullptr) {
    char line[64];
    std::snprintf(line, sizeof(line), "%s delay=%" PRId64 "us",
                  reorder ? "hold" : (duplicate ? "dup" : "fwd"),
                  delay.nanos() / 1000);
    decision_log_->push_back(line);
  }

  if (reorder && !held_.has_value()) {
    ++stats_.reordered;
    held_ = HeldDatagram{sender, std::move(datagram), delay};
    held_flush_event_ = executor_->ScheduleAfter(
        kReorderFlushAfter, [this] {
          held_flush_event_ = 0;
          FlushHeld();
        });
    return;
  }

  Forward(sender, datagram, delay);
  if (duplicate) {
    ++stats_.duplicated;
    Forward(sender, datagram, delay);
  }
  // This datagram has overtaken the held one; release it.
  FlushHeld();
}

void FaultFabric::FlushHeld() {
  if (!held_.has_value()) {
    return;
  }
  if (held_flush_event_ != 0) {
    executor_->Cancel(held_flush_event_);
    held_flush_event_ = 0;
  }
  HeldDatagram held = std::move(*held_);
  held_.reset();
  Forward(held.sender, held.datagram, held.delay);
}

void FaultFabric::Forward(sim::Host* sender, const Datagram& d,
                          sim::Duration delay) {
  if (delay <= sim::Duration::Zero()) {
    SendThrough(sender, d);
    return;
  }
  ++stats_.delayed;
  auto id_slot = std::make_shared<uint64_t>(0);
  const uint64_t id = executor_->ScheduleAfter(
      delay, [this, sender, d, id_slot] {
        pending_events_.erase(*id_slot);
        if (sender->up()) {
          SendThrough(sender, d);
        }
      });
  *id_slot = id;
  pending_events_.insert(id);
}

void FaultFabric::SendThrough(sim::Host* sender, Datagram d) {
  inner_->suppress_send_observation_ = true;
  inner_->Transmit(sender, std::move(d));
  inner_->suppress_send_observation_ = false;
}

std::optional<NetAddress> FaultFabric::ParseEndpoint(
    std::string_view text) {
  // The control protocol's own rule: a bare port means 127.0.0.1.
  const std::string full = text.find(':') == std::string_view::npos
                               ? "127.0.0.1:" + std::string(text)
                               : std::string(text);
  circus::StatusOr<NetAddress> address = ParseNetAddress(full);
  if (!address.ok() || address->port == 0) {
    return std::nullopt;
  }
  return *address;
}

std::string FaultFabric::StatusLine() const {
  std::ostringstream out;
  out << "seed=" << seed_ << " loss=" << plan_.drop
      << " dup=" << plan_.duplicate << " reorder=" << plan_.reorder
      << " delay_ms=" << plan_.delay.ToMillisF()
      << " jitter_ms=" << plan_.jitter.ToMillisF() << " partition=[";
  bool first = true;
  for (const NetAddress& a : island_) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << a.ToString();
  }
  out << "] transmitted=" << stats_.transmitted
      << " dropped=" << stats_.dropped << " dup_sent=" << stats_.duplicated
      << " reordered=" << stats_.reordered
      << " pblocked=" << stats_.blocked_by_partition;
  return out.str();
}

circus::StatusOr<std::string> FaultFabric::ApplyCommand(
    std::string_view command) {
  std::istringstream in{std::string(command)};
  std::string verb;
  if (!(in >> verb)) {
    return circus::Status(ErrorCode::kInvalidArgument, "empty fault command");
  }
  auto rest_tokens = [&in] {
    std::vector<std::string> tokens;
    std::string t;
    while (in >> t) {
      tokens.push_back(t);
    }
    return tokens;
  };
  auto one_arg = [&](const char* what) -> circus::StatusOr<std::string> {
    std::string arg;
    if (!(in >> arg)) {
      return circus::Status(ErrorCode::kInvalidArgument,
                            std::string("missing argument: ") + what);
    }
    std::string extra;
    if (in >> extra) {
      return circus::Status(ErrorCode::kInvalidArgument,
                            std::string("trailing arguments after ") + what);
    }
    return arg;
  };

  if (verb == "status") {
    return StatusLine();
  }
  if (verb == "heal") {
    Heal();
    return std::string("ok");
  }
  if (verb == "clear") {
    plan_ = FaultInjectionPlan{};
    Heal();
    return std::string("ok");
  }
  if (verb == "seed") {
    auto arg = one_arg("seed");
    if (!arg.ok()) {
      return arg.status();
    }
    uint64_t seed = 0;
    const std::string& s = *arg;
    auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), seed);
    if (ec != std::errc() || p != s.data() + s.size()) {
      return circus::Status(ErrorCode::kInvalidArgument,
                            "bad seed: " + s);
    }
    Reseed(seed);
    return std::string("ok");
  }
  if (verb == "loss" || verb == "dup" || verb == "reorder") {
    auto arg = one_arg(verb.c_str());
    if (!arg.ok()) {
      return arg.status();
    }
    double p = 0.0;
    if (!ParseProbability(*arg, &p)) {
      return circus::Status(ErrorCode::kInvalidArgument,
                            "probability not in [0,1]: " + *arg);
    }
    if (verb == "loss") {
      plan_.drop = p;
    } else if (verb == "dup") {
      plan_.duplicate = p;
    } else {
      plan_.reorder = p;
    }
    return std::string("ok");
  }
  if (verb == "delay_ms" || verb == "jitter_ms") {
    auto arg = one_arg(verb.c_str());
    if (!arg.ok()) {
      return arg.status();
    }
    sim::Duration d;
    if (!ParseMillis(*arg, &d)) {
      return circus::Status(ErrorCode::kInvalidArgument,
                            "bad duration (ms): " + *arg);
    }
    if (verb == "delay_ms") {
      plan_.delay = d;
    } else {
      plan_.jitter = d;
    }
    return std::string("ok");
  }
  if (verb == "partition") {
    std::vector<NetAddress> island;
    for (const std::string& token : rest_tokens()) {
      std::optional<NetAddress> a = ParseEndpoint(token);
      if (!a.has_value()) {
        return circus::Status(ErrorCode::kInvalidArgument,
                              "bad endpoint: " + token);
      }
      island.push_back(*a);
    }
    if (island.empty()) {
      return circus::Status(ErrorCode::kInvalidArgument,
                            "partition needs at least one endpoint");
    }
    PartitionEndpoints(std::move(island));
    return std::string("ok");
  }
  return circus::Status(ErrorCode::kInvalidArgument,
                        "unknown fault command: " + verb);
}

}  // namespace circus::net
