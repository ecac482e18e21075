#include "perfbench/probes.h"

#include <malloc.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/check.h"

namespace perfbench {
namespace {

int64_t TimevalUs(const timeval& tv) {
  return static_cast<int64_t>(tv.tv_sec) * 1000000 + tv.tv_usec;
}

int64_t ReadRssKb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long size = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (n != 2) {
    return 0;
  }
  return static_cast<int64_t>(resident) * (sysconf(_SC_PAGESIZE) / 1024);
}

// The RcvbufErrors column of the "Udp:" rows of /proc/net/snmp (a
// header row naming the columns, then a row of values).
int64_t ReadUdpRcvbufErrors() {
  FILE* f = std::fopen("/proc/net/snmp", "r");
  if (f == nullptr) {
    return -1;
  }
  char line[1024];
  std::vector<std::string> header;
  int64_t result = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "Udp: ", 5) != 0) {
      continue;
    }
    std::vector<std::string> fields;
    for (char* tok = std::strtok(line + 5, " \n"); tok != nullptr;
         tok = std::strtok(nullptr, " \n")) {
      fields.emplace_back(tok);
    }
    if (header.empty()) {
      header = std::move(fields);
      continue;
    }
    for (size_t i = 0; i < header.size() && i < fields.size(); ++i) {
      if (header[i] == "RcvbufErrors") {
        result = std::stoll(fields[i]);
      }
    }
    break;
  }
  std::fclose(f);
  return result;
}

int BoundUdpSocket(sockaddr_in* addr) {
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  CIRCUS_CHECK(fd >= 0);
  std::memset(addr, 0, sizeof *addr);
  addr->sin_family = AF_INET;
  addr->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr->sin_port = 0;
  CIRCUS_CHECK(bind(fd, reinterpret_cast<sockaddr*>(addr), sizeof *addr) ==
               0);
  socklen_t len = sizeof *addr;
  CIRCUS_CHECK(getsockname(fd, reinterpret_cast<sockaddr*>(addr), &len) ==
               0);
  return fd;
}

}  // namespace

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

CpuTimes ProcessCpu() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return {TimevalUs(ru.ru_utime), TimevalUs(ru.ru_stime)};
}

OsSample SampleOs() {
  malloc_trim(0);
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  OsSample s;
  s.user_us = TimevalUs(ru.ru_utime);
  s.sys_us = TimevalUs(ru.ru_stime);
  s.minflt = ru.ru_minflt;
  s.ctxsw = ru.ru_nvcsw + ru.ru_nivcsw;
  s.rss_kb = ReadRssKb();
  s.udp_rcvbuf_errors = ReadUdpRcvbufErrors();
  return s;
}

HostSpeed MeasureHostSpeed() {
  constexpr int kRuns = 9;
  std::vector<double> user;
  std::vector<double> sys;
  uint64_t sink = 0;
  for (int run = 0; run < kRuns; ++run) {
    const int64_t t0 = NowNs();
    std::map<uint64_t, uint64_t> tree;
    uint64_t x = 99 + static_cast<uint64_t>(run);
    for (int i = 0; i < 500; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      tree[x >> 20] = x;
    }
    sink += tree.begin()->second;
    tree.clear();
    const int64_t t1 = NowNs();
    for (int i = 0; i < 200; ++i) {
      sink += static_cast<uint64_t>(syscall(SYS_getppid));
    }
    const int64_t t2 = NowNs();
    user.push_back(static_cast<double>(t1 - t0) / 1000.0);
    sys.push_back(static_cast<double>(t2 - t1) / 1000.0);
  }
  if (sink == 1) {
    std::fprintf(stderr, " ");  // keeps the kernels observable
  }
  std::sort(user.begin(), user.end());
  std::sort(sys.begin(), sys.end());
  return {user[kRuns / 2], sys[kRuns / 2]};
}

double RawUdpEchoUs(int rounds) {
  sockaddr_in client_addr;
  sockaddr_in server_addr;
  const int client = BoundUdpSocket(&client_addr);
  const int server = BoundUdpSocket(&server_addr);
  char out[16];
  char in[64];
  std::memset(out, 0x5A, sizeof out);
  std::vector<double> us;
  us.reserve(static_cast<size_t>(rounds));
  for (int i = 0; i < rounds; ++i) {
    const int64_t t0 = NowNs();
    CIRCUS_CHECK(sendto(client, out, sizeof out, 0,
                        reinterpret_cast<sockaddr*>(&server_addr),
                        sizeof server_addr) == sizeof out);
    sockaddr_in from;
    socklen_t from_len = sizeof from;
    const ssize_t n = recvfrom(server, in, sizeof in, 0,
                               reinterpret_cast<sockaddr*>(&from), &from_len);
    CIRCUS_CHECK(n == sizeof out);
    CIRCUS_CHECK(sendto(server, in, static_cast<size_t>(n), 0,
                        reinterpret_cast<sockaddr*>(&from), from_len) == n);
    CIRCUS_CHECK(recv(client, in, sizeof in, 0) == n);
    us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
  }
  close(client);
  close(server);
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  return us[us.size() / 2];
}

}  // namespace perfbench
