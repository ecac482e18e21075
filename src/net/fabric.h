// The transport seam. A Fabric is anything that can carry datagrams
// between hosts: the simulated Network (fault injection, virtual time)
// or the real-time rt::UdpFabric (AF_INET sockets, wall-clock time).
// Every layer above the socket — msg/, core/, txn/, binding/ — holds a
// Fabric* and runs unmodified over either implementation; the seam is a
// type, never a branch.
#ifndef SRC_NET_FABRIC_H_
#define SRC_NET_FABRIC_H_

#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/net/address.h"
#include "src/obs/bus.h"
#include "src/obs/metrics.h"
#include "src/sim/host.h"

namespace circus::net {

struct Datagram {
  NetAddress source;
  NetAddress destination;  // as addressed (may be a multicast group)
  circus::Bytes payload;
};

class DatagramSocket;

class Fabric {
 public:
  Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  virtual ~Fabric() = default;

  // The (single) network address of an attached host.
  virtual HostAddress AddressOfHost(sim::Host::HostId id) const = 0;

  // The largest datagram payload an attached host's sends may carry:
  // the MTU constraint of Section 4.2.4, a property of the medium.
  // PairedEndpoint sizes its segments to it.
  virtual size_t MaxDatagramBytes(sim::Host::HostId id) const = 0;

  // The runtime's observability hub, carried here so every layer that
  // can reach the fabric (sockets, endpoints, processes) can publish
  // events and bump metrics without new plumbing. Null outside a
  // World / rt::Runtime. The fabric itself publishes one kPacketSend
  // per send operation (before the packet enters the wire and before
  // any fault injection) and one kPacketDeliver per datagram handed to
  // a socket, each carrying the datagram: the one way to observe the
  // wire, on either fabric.
  void set_event_bus(obs::EventBus* bus) { event_bus_ = bus; }
  obs::EventBus* event_bus() const { return event_bus_; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // Restricts the range Bind draws port-0 allocations from (inclusive).
  // The default mirrors the IANA dynamic range.
  void set_ephemeral_port_range(Port lo, Port hi) {
    ephemeral_lo_ = lo;
    ephemeral_hi_ = hi;
  }

 protected:
  friend class DatagramSocket;
  // FaultFabric is a decorator that forwards a socket's operations into a
  // wrapped inner fabric; the friendship grants it access to the
  // protected Bind/Transmit entry points and to the send-observation
  // suppression flag below.
  friend class FaultFabric;

  // Binds `socket` on its host; port 0 picks an ephemeral port from the
  // configured range. Fails with kAlreadyExists if the port is taken and
  // kUnavailable if the ephemeral range is exhausted.
  virtual circus::StatusOr<NetAddress> Bind(DatagramSocket* socket,
                                            Port port) = 0;
  // Releases the socket's binding and any group memberships.
  virtual void Unbind(DatagramSocket* socket) = 0;
  // Entry point used by DatagramSocket::Send/SendRaw. `datagram.payload`
  // must fit the sender's MaxDatagramBytes.
  virtual void Transmit(sim::Host* sender, Datagram datagram) = 0;
  virtual void JoinGroup(HostAddress group, DatagramSocket* socket) = 0;
  virtual void LeaveGroup(HostAddress group, DatagramSocket* socket) = 0;

  // Bridge into the socket's (private) receive queue, so concrete
  // fabrics do not need to be friends of DatagramSocket themselves.
  // Publishes kPacketDeliver (with the receiving socket's bound address
  // as destination) before enqueueing the datagram.
  void Deliver(DatagramSocket* socket, Datagram d);

  // Shared send-side observation: publishes kPacketSend.
  void ObserveSend(sim::Host* sender, const Datagram& datagram);

  Port ephemeral_lo_ = 49152;
  Port ephemeral_hi_ = 65535;

 private:
  obs::EventBus* event_bus_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // One-shot: set by FaultFabric immediately before re-injecting a
  // surviving/duplicated copy through Transmit, so the copy is not
  // observed a second time (the decorator already observed the original
  // send, pre-fault, so every send is seen exactly once). Cleared by
  // the next ObserveSend. Safe because every fabric runs single-threaded
  // on its executor and Transmit observes synchronously.
  bool suppress_send_observation_ = false;
};

}  // namespace circus::net

#endif  // SRC_NET_FABRIC_H_
