// Internet-style process addressing, following Section 4.2.1 of the
// dissertation: a process address is a 32-bit host address plus a 16-bit
// port number. Addresses with the historical class-D prefix (top nibble
// 0xE) are multicast group addresses; the dissertation notes (Section
// 4.3.7) that an Ethernet multicast capability would let a single send
// reach an entire troupe, and the simulated network provides exactly that.
#ifndef SRC_NET_ADDRESS_H_
#define SRC_NET_ADDRESS_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace circus::net {

using HostAddress = uint32_t;
using Port = uint16_t;

inline constexpr HostAddress kMulticastBase = 0xE0000000u;

constexpr bool IsMulticastHost(HostAddress h) {
  return (h & 0xF0000000u) == kMulticastBase;
}

struct NetAddress {
  HostAddress host = 0;
  Port port = 0;

  constexpr auto operator<=>(const NetAddress&) const = default;

  bool is_multicast() const { return IsMulticastHost(host); }

  // Dotted-quad rendering, e.g. "10.0.0.3:9000".
  std::string ToString() const;
};

// "10.1.2.3:9000" -> NetAddress, through the one strict endpoint parser
// (src/common/endpoint.h); kInvalidArgument naming `text` otherwise.
circus::StatusOr<NetAddress> ParseNetAddress(std::string_view text);

struct NetAddressHash {
  size_t operator()(const NetAddress& a) const {
    return std::hash<uint64_t>()(
        (static_cast<uint64_t>(a.host) << 16) | a.port);
  }
};

// Makes a unicast host address in the simulated 10.0.0.0/8 net.
constexpr HostAddress MakeHostAddress(uint32_t index) {
  return (10u << 24) | (index + 1);
}

// Makes a multicast group address from a small group index.
constexpr HostAddress MakeMulticastAddress(uint32_t group) {
  return kMulticastBase | (group + 1);
}

}  // namespace circus::net

#endif  // SRC_NET_ADDRESS_H_
