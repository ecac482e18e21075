// The one parser for "a.b.c.d:port" IPv4 endpoints: node configs, CLI
// flags, the fault-control protocol and trace shards all read them
// through it. It lives below net/ because obs/ (which net/ links) reads
// endpoints out of shard files.
#ifndef SRC_COMMON_ENDPOINT_H_
#define SRC_COMMON_ENDPOINT_H_

#include <cstdint>
#include <string_view>

namespace circus {

// Strict: exactly four decimal octets in [0, 255], one ':', a decimal
// port in [0, 65535], and nothing else (no signs, spaces or trailing
// characters). Port 0 parses; callers that need a real port reject it.
// On success stores the host in host byte order.
bool ParseIpv4Endpoint(std::string_view text, uint32_t* host,
                       uint16_t* port);

}  // namespace circus

#endif  // SRC_COMMON_ENDPOINT_H_
