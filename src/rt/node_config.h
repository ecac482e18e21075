// Configuration for the `circus node` daemon: a small key=value file
// (comments with '#', blank lines ignored) describing one node of a real
// deployment. One `circus node` OS process runs one role; a loopback
// testbed is several `circus node` processes (or one rt_loopback_test
// process) sharing 127.0.0.1.
//
//   role = ringmaster | member | client
//   listen = 127.0.0.1:9000        # this node's process address
//   ringmaster = 127.0.0.1:9000    # bootstrap binding (member/client)
//   troupe = echo                  # troupe name to register/join/call
//   interface = echo               # exported interface name (member)
//   calls = 100                    # client: calls to issue
//   payload = 64                   # client: argument bytes per call
//   run_seconds = 0                # serve duration; 0 = forever
//   node_name =                    # display name; default "<role>-<port>"
//   stats_port = 0                 # UDP introspection port; 0 = disabled
//   slow_call_us = 0               # dump calls slower than this to the
//                                  # trace shard as slow_call events;
//                                  # 0 = disabled
//   trace_dir =                    # write <node_name>.trace.jsonl here
//                                  # (events + packets); empty = none
//   faults_port = 0                # UDP fault-injection control port;
//                                  # 0 = no fault fabric
//   fault_seed = 0                 # FaultFabric decision-stream seed
//   resilient = 0                  # client: 1 = keep calling through
//                                  # failures (availability probe mode)
//   collation = unanimous          # client: unanimous|first_come|majority
//   procedure = 0                  # client: procedure number to call
//   workload = echo                # application: echo | replfs
//   verify = 0                     # replfs client: 1 = one read-your-
//                                  # writes convergence check, then exit
#ifndef SRC_RT_NODE_CONFIG_H_
#define SRC_RT_NODE_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/net/address.h"

namespace circus::rt {

struct NodeConfig {
  enum class Role { kRingmaster, kMember, kClient };

  Role role = Role::kMember;
  net::NetAddress listen;
  net::NetAddress ringmaster;
  std::string troupe = "echo";
  std::string interface_name = "echo";
  int calls = 100;
  int payload = 64;
  int run_seconds = 0;
  std::string node_name;        // empty: derived as "<role>-<listen port>"
  net::Port stats_port = 0;     // 0: no introspection endpoint
  int slow_call_us = 0;         // 0: no slow-call dump
  std::string trace_dir;        // empty: no trace shard
  net::Port faults_port = 0;    // 0: no fault-injection control endpoint
  uint64_t fault_seed = 0;      // decision-stream seed for the FaultFabric
  bool resilient = false;       // client keeps calling through failures
  std::string collation = "unanimous";  // client reply collation
  int procedure = 0;            // client procedure number
  std::string workload = "echo";  // member/client application
  bool verify = false;          // replfs client: convergence probe mode

  // The configured node_name, or the "<role>-<port>" default.
  std::string DisplayName() const;
  // "ringmaster" | "member" | "client".
  const char* RoleName() const;
};

// Parses config text; unknown keys are an error (they are typos).
circus::StatusOr<NodeConfig> ParseNodeConfig(const std::string& text);

// Reads and parses a config file.
circus::StatusOr<NodeConfig> LoadNodeConfig(const std::string& path);

}  // namespace circus::rt

#endif  // SRC_RT_NODE_CONFIG_H_
