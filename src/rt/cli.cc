#include "src/rt/cli.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <string_view>

namespace circus::rt::cli {

namespace {

struct Subcommand {
  const char* name;
  int (*run)(int argc, char** argv);
  const char* summary;
};

constexpr Subcommand kSubcommands[] = {
    {"node", Node,
     "run one node (ringmaster, member or client) from a config file"},
    {"nemesis", Nemesis,
     "run a loopback testbed through a seeded chaos schedule and audit it"},
    {"merge", Merge, "join trace shards into one clock-aligned Chrome trace"},
    {"lat", Lat, "stage-level latency attribution over trace shards"},
    {"wire", Wire,
     "audit the packets in trace shards against the Section 4.2 rules"},
    {"top", Top, "live per-node, per-resource utilization of a testbed"},
};

bool IsPositional(const Flag& flag) { return flag.name[0] != '-'; }

bool IsVector(const Flag& flag) {
  return std::holds_alternative<std::vector<std::string>*>(flag.target) ||
         std::holds_alternative<std::vector<net::NetAddress>*>(flag.target);
}

// "--interval ms", "--once", or the positional's name.
std::string Synopsis(const Flag& flag) {
  return flag.value == nullptr ? flag.name
                               : std::string(flag.name) + " " + flag.value;
}

void PrintUsage(std::string_view subcommand, std::span<const Flag> flags) {
  std::string line = "usage: circus " + std::string(subcommand);
  for (const Flag& flag : flags) {
    line += IsPositional(flag) ? " " + Synopsis(flag)
                               : " [" + Synopsis(flag) + "]";
    line += IsVector(flag) ? "..." : "";
  }
  std::fprintf(stderr, "%s\n", line.c_str());
  for (const Subcommand& s : kSubcommands) {
    if (subcommand == s.name) {
      std::fprintf(stderr, "%s\n", s.summary);
    }
  }
  for (const Flag& flag : flags) {
    std::fprintf(stderr, "  %-22s %s\n", Synopsis(flag).c_str(), flag.help);
  }
}

// Stores one value into `flag`'s target; returns the error, or "".
std::string Store(const Flag& flag, std::string_view text) {
  const bool is_int = std::holds_alternative<int*>(flag.target);
  if (is_int || std::holds_alternative<uint64_t*>(flag.target)) {
    // Digits only (from_chars takes no sign, space or prefix for an
    // unsigned type), all of them, within [min, max].
    const uint64_t max =
        std::min<uint64_t>(flag.max, is_int ? INT_MAX : UINT64_MAX);
    const char* end = text.data() + text.size();
    uint64_t value = 0;
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || stop != end || value < flag.min || value > max) {
      return "'" + std::string(text) + "' is not an integer in [" +
             std::to_string(flag.min) + ", " + std::to_string(max) + "]";
    }
    if (is_int) {
      *std::get<int*>(flag.target) = static_cast<int>(value);
    } else {
      *std::get<uint64_t*>(flag.target) = value;
    }
  } else if (auto* target = std::get_if<std::string*>(&flag.target)) {
    **target = text;
  } else if (auto* list = std::get_if<std::vector<std::string>*>(
                 &flag.target)) {
    (*list)->emplace_back(text);
  } else if (auto* addresses = std::get_if<std::vector<net::NetAddress>*>(
                 &flag.target)) {
    circus::StatusOr<net::NetAddress> address = net::ParseNetAddress(text);
    if (!address.ok()) {
      return address.status().message();
    }
    (*addresses)->push_back(*address);
  }
  return "";
}

}  // namespace

int UsageError(const char* subcommand, std::span<const Flag> flags,
               const std::string& why) {
  std::fprintf(stderr, "circus %s: %s\n", subcommand, why.c_str());
  PrintUsage(subcommand, flags);
  return kUsageError;
}

bool ParseFlags(int argc, char** argv, std::span<const Flag> flags) {
  const char* subcommand = argv[0];
  const Flag* positional = nullptr;
  for (const Flag& flag : flags) {
    positional = IsPositional(flag) ? &flag : positional;
  }
  int positionals = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      PrintUsage(subcommand, flags);
      return false;
    }
    const Flag* flag = positional;
    if (arg[0] == '-') {
      flag = nullptr;
      for (const Flag& candidate : flags) {
        flag = arg == candidate.name ? &candidate : flag;
      }
      if (flag == nullptr) {
        UsageError(subcommand, flags, "unknown flag " + arg);
        return false;
      }
      if (auto* on = std::get_if<bool*>(&flag->target)) {
        **on = true;
        continue;
      }
      if (++i == argc) {
        UsageError(subcommand, flags, arg + " needs a value");
        return false;
      }
    } else if (flag == nullptr || (positionals > 0 && !IsVector(*flag))) {
      UsageError(subcommand, flags, "unexpected argument " + arg);
      return false;
    } else {
      ++positionals;
    }
    const std::string error = Store(*flag, argv[i]);
    if (!error.empty()) {
      UsageError(subcommand, flags, std::string(flag->name) + ": " + error);
      return false;
    }
  }
  if (positional != nullptr && positionals == 0) {
    UsageError(subcommand, flags, std::string("missing ") + positional->name);
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  const std::string_view subcommand = argc > 1 ? argv[1] : "";
  for (const Subcommand& s : kSubcommands) {
    if (subcommand == s.name) {
      return s.run(argc - 1, argv + 1);
    }
  }
  if (!subcommand.empty() && subcommand != "-h" && subcommand != "--help") {
    std::fprintf(stderr, "circus: unknown subcommand '%s'\n", argv[1]);
  }
  std::fprintf(stderr, "usage: circus <subcommand> [args...]\n");
  for (const Subcommand& s : kSubcommands) {
    std::fprintf(stderr, "  %-8s %s\n", s.name, s.summary);
  }
  std::fprintf(stderr, "'circus <subcommand> --help' lists its flags.\n");
  return kUsageError;
}

}  // namespace circus::rt::cli
