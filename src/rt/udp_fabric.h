// A net::Fabric backed by real AF_INET UDP sockets. Host addresses are
// real IPv4 addresses in host byte order (127.0.0.1 == 0x7F000001), so
// the protocol layers' NetAddress values are the actual wire addresses.
// Datagrams take the kernel's UDP path; loss, duplication, and delay are
// whatever the real network provides (there is no fault injection here —
// that is the simulator's job).
//
// Multicast (class-D destinations) is emulated by fanning a send out to
// every locally joined socket's unicast address. That matches the
// simulated Network's delivery semantics exactly for single-machine
// (loopback) runtimes; cross-host IP multicast is an open item in
// ROADMAP.md.
#ifndef SRC_RT_UDP_FABRIC_H_
#define SRC_RT_UDP_FABRIC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "src/net/fabric.h"
#include "src/net/socket.h"
#include "src/rt/io_loop.h"

namespace circus::rt {

struct UdpFabricStats {
  uint64_t packets_sent = 0;       // send operations (multicast counts 1)
  uint64_t packets_delivered = 0;  // datagrams read off real sockets
  uint64_t bytes_sent = 0;         // payload bytes offered to sendto
  uint64_t bytes_delivered = 0;    // payload bytes read off real sockets
  uint64_t send_errors = 0;        // sendto failures (dropped, like UDP)
  uint64_t backpressure = 0;       // of those: EAGAIN/ENOBUFS (full bufs)
  uint64_t truncated = 0;          // inbound datagrams over the limit
  uint64_t kernel_drops = 0;       // dropped by the kernel at a full
                                   // receive queue (SO_RXQ_OVFL)
};

// The largest IPv4 UDP payload (65535 - 20 IP - 8 UDP header bytes).
// Loopback's 64 KiB MTU carries it in one piece.
inline constexpr size_t kLoopbackDatagramBytes = 65507;
// One Ethernet frame's UDP payload (1500 - 20 - 8): the most a datagram
// to another machine carries without IP fragmentation.
inline constexpr size_t kEthernetDatagramBytes = 1472;
// The cap on one text reply of a node's query endpoints (introspection,
// fault control): one Ethernet frame's UDP payload, so a cross-host
// `circus top` never gets a fragmented reply.
inline constexpr size_t kMaxQueryReplyBytes = kEthernetDatagramBytes;

class UdpFabric : public net::Fabric {
 public:
  explicit UdpFabric(IoLoop* loop);
  ~UdpFabric() override;

  // Gives `host` its interface address (a real local IP, host byte
  // order). Several hosts may share one interface — e.g. a whole troupe
  // on 127.0.0.1 — because ports, not addresses, distinguish sockets.
  void AttachHost(sim::Host* host, net::HostAddress interface_ip);
  net::HostAddress AddressOfHost(sim::Host::HostId id) const override;
  // kLoopbackDatagramBytes for a host on 127.0.0.0/8, else
  // kEthernetDatagramBytes, so a cross-host node never IP-fragments.
  size_t MaxDatagramBytes(sim::Host::HostId id) const override;

  // Port-0 binds scan the ephemeral range from `offset` ports in
  // (modulo the range size), wrapping round. The default is a hash of
  // the process id, so rt processes started together walk different
  // ports.
  void set_ephemeral_scan_offset(uint32_t offset) {
    scan_offset_ = offset;
    next_ephemeral_port_ = 0;
  }

  const UdpFabricStats& stats() const { return stats_; }

  // Datagrams sitting in bound sockets' receive queues, fabric-wide —
  // the recv-backlog side of the utilization telemetry.
  size_t TotalReceiveBacklog() const;

 protected:
  circus::StatusOr<net::NetAddress> Bind(net::DatagramSocket* socket,
                                         net::Port port) override;
  void Unbind(net::DatagramSocket* socket) override;
  void Transmit(sim::Host* sender, net::Datagram datagram) override;
  void JoinGroup(net::HostAddress group,
                 net::DatagramSocket* socket) override;
  void LeaveGroup(net::HostAddress group,
                  net::DatagramSocket* socket) override;

 private:
  struct Binding {
    int fd = -1;
    net::NetAddress local;
    uint32_t kernel_drops = 0;  // the socket's SO_RXQ_OVFL count, last read
  };
  // The buffers one recvmmsg call fills, allocated once per fabric and
  // reused by every drain.
  struct RecvBatch;

  // Opens + binds a nonblocking UDP fd on (ip, port); port 0 is resolved
  // from the fabric's ephemeral range, mirroring the simulated Network's
  // allocator (the OS allocator would ignore set_ephemeral_port_range).
  circus::StatusOr<Binding> OpenAndBind(net::HostAddress ip, net::Port port);
  void DrainFd(net::DatagramSocket* socket);

  IoLoop* loop_;
  std::unique_ptr<RecvBatch> recv_;
  std::unordered_map<sim::Host::HostId, net::HostAddress> host_ip_;
  std::unordered_map<net::DatagramSocket*, Binding> bindings_;
  // Socket lookup by local address, for the sender-side fd resolution.
  std::unordered_map<net::NetAddress, net::DatagramSocket*,
                     net::NetAddressHash>
      by_address_;
  std::map<net::HostAddress, std::set<net::DatagramSocket*>> groups_;
  uint32_t scan_offset_ = 0;
  net::Port next_ephemeral_port_ = 0;  // 0: rescan from scan_offset_
  UdpFabricStats stats_;
  obs::Counter* kernel_drops_metric_ = nullptr;
};

}  // namespace circus::rt

#endif  // SRC_RT_UDP_FABRIC_H_
