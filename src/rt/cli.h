// The `circus` command: one executable whose first argument picks a
// subcommand (node, nemesis, merge, lat, wire, top), and the one argument
// parser every subcommand declares its flags to. The bodies live in this
// library so tests run them in-process; the executable is cli::Main.
#ifndef SRC_RT_CLI_H_
#define SRC_RT_CLI_H_

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/net/address.h"

namespace circus::rt::cli {

// Exit code for every bad command line: no or unknown subcommand,
// unknown flag, missing value, bad number or address, missing or extra
// positional arguments.
inline constexpr int kUsageError = 2;

// One entry of a subcommand's flag table. A name starting with '-' is a
// flag: a bool target makes it a switch ("--once"); any other target
// takes the next argument as its value ("--interval 500"), and a vector
// target makes it repeatable. Any other name stands for the positional
// arguments: a string target takes exactly one, a vector target one or
// more. Integers are plain decimal digits in [min, max], nothing else.
struct Flag {
  using Target =
      std::variant<bool*, int*, uint64_t*, std::string*,
                   std::vector<std::string>*, std::vector<net::NetAddress>*>;

  const char* name;
  Target target;
  const char* value;  // value's name in usage ("ms"); null if it takes none
  const char* help;
  uint64_t min = 0;
  uint64_t max = UINT64_MAX;
};

// Parses argv[1..argc) into the table's targets; argv[0] is the
// subcommand name. On a bad command line (or -h/--help) prints why and
// the usage to stderr and returns false: the caller exits kUsageError.
bool ParseFlags(int argc, char** argv, std::span<const Flag> flags);

// A check the table cannot express failed: prints "circus <sub>: why"
// and the usage, and returns kUsageError.
int UsageError(const char* subcommand, std::span<const Flag> flags,
               const std::string& why);

// The subcommands; argv[0] is the subcommand name.
int Node(int argc, char** argv);
int Nemesis(int argc, char** argv);
int Merge(int argc, char** argv);
int Lat(int argc, char** argv);
int Wire(int argc, char** argv);
int Top(int argc, char** argv);

// The dispatcher: argv[1] picks the subcommand from the table.
int Main(int argc, char** argv);

}  // namespace circus::rt::cli

#endif  // SRC_RT_CLI_H_
