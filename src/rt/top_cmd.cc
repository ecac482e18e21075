// `circus top`: live per-node utilization for a whole testbed.
//
//   circus top [--once] [--interval ms] [--timeout ms] host:port...
//
// Polls the stats port of every listed `circus node` (the same UDP
// endpoint netcat can drive): `health` for the node name, role and
// graded load, then the paged `util <offset>` query reassembled via
// the `chunk <offset> <next|end>` framing, and renders one table row
// per (node, resource) — busy share, mean/peak, queue depth, op and
// byte rates, error count, and the graded saturation level.
//
// By default the table refreshes in place every --interval ms until
// interrupted. --once prints a single snapshot and exits. Exit codes:
// 0 every node answered (at least once in live mode), 1 one or more
// nodes never answered, 2 usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/rt/cli.h"
#include "src/rt/udp_query.h"

namespace circus::rt {
namespace {

// One resource row parsed out of the util exposition.
struct ResourceRow {
  double busy_pct = -1;       // circus_util_busy_pct (percent; <0 = n/a)
  double busy_mean_pct = -1;  // circus_util_busy_mean_pct
  double busy_peak_pct = -1;  // circus_util_busy_peak_pct
  double queue = 0;           // circus_util_queue
  double ops_per_sec = 0;     // circus_util_ops_per_sec
  double bytes_per_sec = 0;   // circus_util_bytes_per_sec
  double errors = 0;          // circus_util_errors_total
  int level = 0;              // circus_util_level
};

struct NodeReading {
  bool alive = false;
  std::string name;
  std::string role;
  std::string load;
  // Insertion-ordered: rows render in the order the node reported them.
  std::vector<std::pair<std::string, ResourceRow>> resources;
};

// Pulls `key value` off a health line ("role follower", "load ok").
bool HealthField(const std::string& line, const char* key, std::string* out) {
  const size_t key_len = std::strlen(key);
  if (line.compare(0, key_len, key) != 0 || line.size() <= key_len ||
      line[key_len] != ' ') {
    return false;
  }
  *out = line.substr(key_len + 1);
  return true;
}

// Parses one `circus_util_<family>{resource="<name>"} <value>` line.
bool UtilLine(const std::string& line, std::string* family,
              std::string* resource, double* value) {
  constexpr const char kPrefix[] = "circus_util_";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (line.compare(0, kPrefixLen, kPrefix) != 0) {
    return false;
  }
  const size_t brace = line.find("{resource=\"", kPrefixLen);
  if (brace == std::string::npos) {
    return false;
  }
  const size_t name_start = brace + std::strlen("{resource=\"");
  const size_t name_end = line.find("\"}", name_start);
  if (name_end == std::string::npos) {
    return false;
  }
  *family = line.substr(kPrefixLen, brace - kPrefixLen);
  *resource = line.substr(name_start, name_end - name_start);
  *value = std::strtod(line.c_str() + name_end + 2, nullptr);
  return true;
}

NodeReading Poll(const net::NetAddress& endpoint, int timeout_ms) {
  NodeReading reading;
  reading.name = endpoint.ToString();

  const std::optional<std::string> health =
      UdpQuery(endpoint, "health", timeout_ms);
  if (!health.has_value()) {
    return reading;
  }
  reading.alive = true;
  std::istringstream health_lines(*health);
  for (std::string line; std::getline(health_lines, line);) {
    std::string value;
    if (HealthField(line, "ok", &value)) {
      reading.name = value;
    } else if (HealthField(line, "role", &value)) {
      reading.role = value;
    } else if (HealthField(line, "load", &value)) {
      reading.load = value;
    }
  }

  const std::optional<std::string> util =
      UdpQueryPaged(endpoint, "util", timeout_ms);
  if (!util.has_value()) {
    return reading;
  }
  std::map<std::string, size_t> index;
  std::istringstream util_lines(*util);
  for (std::string line; std::getline(util_lines, line);) {
    std::string family;
    std::string resource;
    double value = 0;
    if (!UtilLine(line, &family, &resource, &value)) {
      continue;
    }
    auto [it, inserted] = index.emplace(resource, reading.resources.size());
    if (inserted) {
      reading.resources.emplace_back(resource, ResourceRow{});
    }
    ResourceRow& row = reading.resources[it->second].second;
    if (family == "busy_pct") {
      row.busy_pct = value;
    } else if (family == "busy_mean_pct") {
      row.busy_mean_pct = value;
    } else if (family == "busy_peak_pct") {
      row.busy_peak_pct = value;
    } else if (family == "queue") {
      row.queue = value;
    } else if (family == "ops_per_sec") {
      row.ops_per_sec = value;
    } else if (family == "bytes_per_sec") {
      row.bytes_per_sec = value;
    } else if (family == "errors_total") {
      row.errors = value;
    } else if (family == "level") {
      row.level = static_cast<int>(value);
    }
  }
  return reading;
}

// Renders "-" for not-applicable busy percentages so cpu-style and
// queue-style resources are tellable apart at a glance.
std::string Pct(double value) {
  if (value < 0) {
    return "-";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", value);
  return buffer;
}

const char* LevelName(int level) {
  switch (level) {
    case 1:
      return "high";
    case 2:
      return "saturated";
    default:
      return "ok";
  }
}

void Render(const std::vector<NodeReading>& readings) {
  std::printf("%-14s %-12s %-14s %6s %6s %6s %8s %9s %11s %5s %s\n", "node",
              "role", "resource", "busy%", "mean%", "peak%", "queue", "ops/s",
              "bytes/s", "errs", "level");
  for (const NodeReading& reading : readings) {
    if (!reading.alive) {  // name is still the endpoint
      std::printf("%-14s %-12s %s\n", reading.name.c_str(), "-",
                  "(no reply)");
      continue;
    }
    if (reading.resources.empty()) {
      std::printf("%-14s %-12s %s\n", reading.name.c_str(),
                  reading.role.c_str(), "(util query failed)");
      continue;
    }
    for (const auto& [resource, row] : reading.resources) {
      std::printf("%-14s %-12s %-14s %6s %6s %6s %8.1f %9.1f %11.1f %5.0f %s\n",
                  reading.name.c_str(), reading.role.c_str(), resource.c_str(),
                  Pct(row.busy_pct).c_str(), Pct(row.busy_mean_pct).c_str(),
                  Pct(row.busy_peak_pct).c_str(), row.queue, row.ops_per_sec,
                  row.bytes_per_sec, row.errors, LevelName(row.level));
    }
  }
}

}  // namespace

int cli::Top(int argc, char** argv) {
  bool once = false;
  int interval_ms = 2000;
  int timeout_ms = 500;
  std::vector<net::NetAddress> endpoints;
  const Flag flags[] = {
      {"--once", &once, nullptr, "print one snapshot and exit"},
      {"--interval", &interval_ms, "ms",
       "refresh period in live mode (default 2000)", 1},
      {"--timeout", &timeout_ms, "ms",
       "per-datagram reply timeout (default 500)", 1},
      {"host:port", &endpoints, nullptr, "a node's stats_port endpoint"},
  };
  if (!ParseFlags(argc, argv, flags)) {
    return kUsageError;
  }

  std::vector<bool> ever_alive(endpoints.size(), false);
  for (;;) {
    std::vector<NodeReading> readings;
    readings.reserve(endpoints.size());
    for (size_t i = 0; i < endpoints.size(); ++i) {
      readings.push_back(Poll(endpoints[i], timeout_ms));
      if (readings.back().alive) {
        ever_alive[i] = true;
      }
    }
    if (!once) {
      // Home the cursor and clear below so the table repaints in place.
      std::fputs("\x1b[H\x1b[J", stdout);
    }
    const std::string refresh =
        once ? "once" : std::to_string(interval_ms) + " ms";
    std::printf("circus top — %zu node(s), refresh %s\n", endpoints.size(),
                refresh.c_str());
    Render(readings);
    std::fflush(stdout);
    if (once) {
      break;
    }
    usleep(static_cast<useconds_t>(interval_ms) * 1000);
  }
  for (bool alive : ever_alive) {
    if (!alive) {
      return 1;
    }
  }
  return 0;
}

}  // namespace circus::rt
