#include "src/rt/udp_query.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace circus::rt {

std::optional<std::string> UdpQuery(const net::NetAddress& to,
                                    std::string_view request, int timeout_ms,
                                    int tries) {
  using Clock = std::chrono::steady_clock;
  const int fd = socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return std::nullopt;
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(to.port);
  addr.sin_addr.s_addr = htonl(to.host);
  std::optional<std::string> reply;
  for (int i = 0; i < tries && !reply.has_value(); ++i) {
    // A failed send just waits out its timeout, which paces the retry.
    (void)sendto(fd, request.data(), request.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    // Wait out the try's timeout for a datagram from `to`; any other
    // sender's datagram is dropped.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      pollfd pfd = {fd, POLLIN, 0};
      if (left.count() <= 0 ||
          poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
        break;
      }
      char buffer[65536];
      sockaddr_in from = {};
      socklen_t from_len = sizeof(from);
      const ssize_t n =
          recvfrom(fd, buffer, sizeof(buffer), 0,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n >= 0 && from.sin_addr.s_addr == addr.sin_addr.s_addr &&
          from.sin_port == addr.sin_port) {
        reply.emplace(buffer, static_cast<size_t>(n));
        break;
      }
    }
  }
  close(fd);
  return reply;
}
std::optional<std::string> UdpQueryPaged(const net::NetAddress& to,
                                         std::string_view query,
                                         int timeout_ms) {
  std::string body;
  size_t offset = 0;
  // 64 pages of ~1.4 KiB bound a reply at ~90 KiB, far above any real
  // exposition; the cap only stops a framing bug from looping forever.
  for (int page = 0; page < 64; ++page) {
    std::optional<std::string> reply = UdpQuery(
        to, std::string(query) + " " + std::to_string(offset), timeout_ms);
    if (!reply.has_value()) {
      return std::nullopt;
    }
    size_t echoed = 0;
    char next[32] = {0};
    const size_t header_end = reply->find('\n');
    if (header_end == std::string::npos ||
        std::sscanf(reply->c_str(), "chunk %zu %31s", &echoed, next) != 2 ||
        echoed != offset) {
      return std::nullopt;
    }
    body.append(*reply, header_end + 1, std::string::npos);
    if (std::strcmp(next, "end") == 0) {
      return body;
    }
    offset = static_cast<size_t>(std::strtoul(next, nullptr, 10));
  }
  return std::nullopt;
}

}  // namespace circus::rt
