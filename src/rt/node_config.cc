#include "src/rt/node_config.h"

#include <fstream>
#include <sstream>

namespace circus::rt {

namespace {

circus::Status ParseError(const std::string& what) {
  return circus::Status(circus::ErrorCode::kInvalidArgument, what);
}

// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

circus::StatusOr<int> ParseInt(const std::string& key,
                               const std::string& value) {
  try {
    size_t consumed = 0;
    int v = std::stoi(value, &consumed);
    if (consumed != value.size()) {
      return ParseError(key + ": trailing junk in '" + value + "'");
    }
    return v;
  } catch (const std::exception&) {
    return ParseError(key + ": not a number: '" + value + "'");
  }
}

}  // namespace

circus::StatusOr<NodeConfig> ParseNodeConfig(const std::string& text) {
  NodeConfig config;
  bool have_listen = false;
  bool have_ringmaster = false;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (size_t hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return ParseError("line " + std::to_string(lineno) +
                        ": expected key = value");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key == "role") {
      if (value == "ringmaster") {
        config.role = NodeConfig::Role::kRingmaster;
      } else if (value == "member") {
        config.role = NodeConfig::Role::kMember;
      } else if (value == "client") {
        config.role = NodeConfig::Role::kClient;
      } else {
        return ParseError("unknown role '" + value + "'");
      }
    } else if (key == "listen") {
      circus::StatusOr<net::NetAddress> addr = net::ParseNetAddress(value);
      if (!addr.ok()) {
        return addr.status();
      }
      config.listen = *addr;
      have_listen = true;
    } else if (key == "ringmaster") {
      circus::StatusOr<net::NetAddress> addr = net::ParseNetAddress(value);
      if (!addr.ok()) {
        return addr.status();
      }
      config.ringmaster = *addr;
      have_ringmaster = true;
    } else if (key == "troupe") {
      config.troupe = value;
    } else if (key == "interface") {
      config.interface_name = value;
    } else if (key == "node_name") {
      config.node_name = value;
    } else if (key == "trace_dir") {
      config.trace_dir = value;
    } else if (key == "stats_port" || key == "faults_port") {
      circus::StatusOr<int> v = ParseInt(key, value);
      if (!v.ok()) {
        return v.status();
      }
      if (*v < 0 || *v > 65535) {
        return ParseError(key + " out of range");
      }
      (key == "stats_port" ? config.stats_port : config.faults_port) =
          static_cast<net::Port>(*v);
    } else if (key == "fault_seed") {
      try {
        size_t consumed = 0;
        config.fault_seed = std::stoull(value, &consumed);
        if (consumed != value.size()) {
          return ParseError("fault_seed: trailing junk in '" + value + "'");
        }
      } catch (const std::exception&) {
        return ParseError("fault_seed: not a number: '" + value + "'");
      }
    } else if (key == "resilient") {
      circus::StatusOr<int> v = ParseInt(key, value);
      if (!v.ok()) {
        return v.status();
      }
      config.resilient = *v != 0;
    } else if (key == "collation") {
      if (value != "unanimous" && value != "first_come" &&
          value != "majority") {
        return ParseError("collation must be unanimous|first_come|majority");
      }
      config.collation = value;
    } else if (key == "workload") {
      if (value != "echo" && value != "replfs") {
        return ParseError("workload must be echo|replfs");
      }
      config.workload = value;
    } else if (key == "verify") {
      circus::StatusOr<int> v = ParseInt(key, value);
      if (!v.ok()) {
        return v.status();
      }
      config.verify = *v != 0;
    } else if (key == "procedure") {
      circus::StatusOr<int> v = ParseInt(key, value);
      if (!v.ok()) {
        return v.status();
      }
      if (*v < 0 || *v > 65535) {
        return ParseError("procedure out of range");
      }
      config.procedure = *v;
    } else if (key == "slow_call_us") {
      circus::StatusOr<int> v = ParseInt(key, value);
      if (!v.ok()) {
        return v.status();
      }
      if (*v < 0) {
        return ParseError("slow_call_us must be non-negative");
      }
      config.slow_call_us = *v;
    } else if (key == "calls" || key == "payload" || key == "run_seconds") {
      circus::StatusOr<int> v = ParseInt(key, value);
      if (!v.ok()) {
        return v.status();
      }
      if (*v < 0) {
        return ParseError(key + " must be non-negative");
      }
      (key == "calls"     ? config.calls
       : key == "payload" ? config.payload
                          : config.run_seconds) = *v;
    } else {
      return ParseError("line " + std::to_string(lineno) +
                        ": unknown key '" + key + "'");
    }
  }
  if (!have_listen) {
    return ParseError("config missing 'listen'");
  }
  if (config.role != NodeConfig::Role::kRingmaster && !have_ringmaster) {
    return ParseError("role needs a 'ringmaster' bootstrap address");
  }
  return config;
}

std::string NodeConfig::DisplayName() const {
  if (!node_name.empty()) {
    return node_name;
  }
  return std::string(RoleName()) + "-" + std::to_string(listen.port);
}

const char* NodeConfig::RoleName() const {
  switch (role) {
    case Role::kRingmaster:
      return "ringmaster";
    case Role::kMember:
      return "member";
    case Role::kClient:
      return "client";
  }
  return "unknown";
}

circus::StatusOr<NodeConfig> LoadNodeConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return circus::Status(circus::ErrorCode::kNotFound,
                          "cannot open config: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseNodeConfig(text.str());
}

}  // namespace circus::rt
