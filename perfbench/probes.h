// Host-level probes for the benchmark: process CPU, faults, context
// switches and resident memory from the kernel, the loopback UDP drop
// counter, and a raw UDP echo that times the kernel's own round trip.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>

namespace perfbench {

// Monotonic wall clock, nanoseconds.
int64_t NowNs();

// One reading of the process's kernel-side counters.
struct OsSample {
  int64_t user_us = 0;
  int64_t sys_us = 0;
  int64_t minflt = 0;
  int64_t ctxsw = 0;  // voluntary + involuntary
  int64_t rss_kb = 0;
  // Udp RcvbufErrors of /proc/net/snmp: datagrams the kernel dropped
  // because a socket's receive buffer was full (-1 when unreadable).
  int64_t udp_rcvbuf_errors = 0;
};

// User and system CPU time of this process, microseconds (getrusage).
struct CpuTimes {
  int64_t user_us = 0;
  int64_t sys_us = 0;
};
CpuTimes ProcessCpu();

// Returns freed heap pages to the kernel, then reads every counter, so
// that RSS growth from here on counts only pages newly touched.
OsSample SampleOs();

// The host's speed, read from two fixed kernels that share no code with
// the program, so they move only with the host: a 4-vCPU cloud VM was
// seen to drift by up to ~40% over minutes (the load on the hardware it
// shares), and by different amounts in user and kernel mode. Each is
// the median time of nine runs, in microseconds.
struct HostSpeed {
  // Insert 500 pseudo-random keys into a std::map and clear it:
  // allocation and pointer chasing, like the protocol's own state.
  double user_us = 0;
  // 200 getppid() calls: kernel entry and exit.
  double sys_us = 0;
};
HostSpeed MeasureHostSpeed();

// Median round trip, in microseconds, of `rounds` 16-byte echoes
// between two blocking loopback UDP sockets in this thread: the kernel
// cost of one datagram exchange with no event loop and no protocol.
double RawUdpEchoUs(int rounds);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
