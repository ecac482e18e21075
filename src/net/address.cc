#include "src/net/address.h"

#include <cstdio>

#include "src/common/endpoint.h"

namespace circus::net {

std::string NetAddress::ToString() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u", (host >> 24) & 0xFF,
                (host >> 16) & 0xFF, (host >> 8) & 0xFF, host & 0xFF, port);
  return buf;
}

circus::StatusOr<NetAddress> ParseNetAddress(std::string_view text) {
  NetAddress address;
  if (!ParseIpv4Endpoint(text, &address.host, &address.port)) {
    return circus::Status(circus::ErrorCode::kInvalidArgument,
                          "'" + std::string(text) +
                              "' is not an IPv4 a.b.c.d:port address");
  }
  return address;
}

}  // namespace circus::net
