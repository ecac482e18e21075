// The one client for a node's text-datagram endpoints, the
// introspection port (stats_port=) and the fault-control port
// (faults_port=): one request datagram, one reply datagram. Plain POSIX
// UDP, no runtime, so a supervisor or viewer can use it from any loop.
//
// Every query opens its own socket and takes only a datagram sent from
// the queried endpoint, so a reply that arrives after its query gave up
// is never read as the answer to a later query.
#ifndef SRC_RT_UDP_QUERY_H_
#define SRC_RT_UDP_QUERY_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/net/address.h"

namespace circus::rt {

// Sends `request` to `to` up to `tries` times, waiting `timeout_ms` for
// the reply after each; nullopt when every try timed out.
std::optional<std::string> UdpQuery(const net::NetAddress& to,
                                    std::string_view request, int timeout_ms,
                                    int tries = 1);

// A paged query: "<query> <offset>" is answered by "chunk <offset>
// <next|end>\n<body>". Returns the bodies joined in order, or nullopt
// when a page is lost or misframed.
std::optional<std::string> UdpQueryPaged(const net::NetAddress& to,
                                         std::string_view query,
                                         int timeout_ms);

}  // namespace circus::rt

#endif  // SRC_RT_UDP_QUERY_H_
