#include "src/net/fabric.h"

#include <utility>

#include "src/net/socket.h"

namespace circus::net {

namespace {

obs::Event PacketEvent(obs::EventKind kind, sim::Host* local,
                       const NetAddress& source,
                       const NetAddress& destination,
                       const circus::Bytes& payload) {
  obs::Event e;
  e.kind = kind;
  e.host = static_cast<uint32_t>(local->id());
  e.a = obs::PackAddress(source.host, source.port);
  e.b = obs::PackAddress(destination.host, destination.port);
  e.c = payload.size();
  e.payload = payload;
  return e;
}

}  // namespace

void Fabric::Deliver(DatagramSocket* socket, Datagram d) {
  if (event_bus_ != nullptr && event_bus_->active()) {
    event_bus_->Publish(PacketEvent(obs::EventKind::kPacketDeliver,
                                    socket->host(), d.source,
                                    socket->local_address(), d.payload));
  }
  socket->EnqueueIncoming(std::move(d));
}

void Fabric::ObserveSend(sim::Host* sender, const Datagram& datagram) {
  if (suppress_send_observation_) {
    suppress_send_observation_ = false;
    return;
  }
  if (event_bus_ != nullptr && event_bus_->active()) {
    event_bus_->Publish(PacketEvent(obs::EventKind::kPacketSend, sender,
                                    datagram.source, datagram.destination,
                                    datagram.payload));
  }
}

}  // namespace circus::net
