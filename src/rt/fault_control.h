// The faults_port control endpoint: one-datagram text commands steering
// a node's FaultFabric at runtime, mirroring the introspect protocol
// (drive it with netcat, or with `circus nemesis` which is the real
// customer). Each request datagram is one FaultFabric::ApplyCommand
// line; the reply is "ok", the status line, or "err <reason>".
//
// The control socket binds on the *inner* fabric, never the fault
// fabric itself, so a nemesis can always heal a partition or lift a
// 100% loss plan — the control plane must not be subject to the chaos
// it steers.
#ifndef SRC_RT_FAULT_CONTROL_H_
#define SRC_RT_FAULT_CONTROL_H_

#include <memory>

#include "src/common/status.h"
#include "src/net/fault_fabric.h"
#include "src/net/socket.h"
#include "src/rt/runtime.h"

namespace circus::rt {

class FaultControl {
 public:
  // Binds the control endpoint on `port` of the runtime's (inner) UDP
  // fabric and serves it from `host`. Fails with kAlreadyExists when
  // the port is taken — `circus node` treats that as fatal.
  static circus::StatusOr<std::unique_ptr<FaultControl>> Open(
      Runtime* runtime, sim::Host* host, net::FaultFabric* fabric,
      net::Port port);

  FaultControl(const FaultControl&) = delete;
  FaultControl& operator=(const FaultControl&) = delete;

  net::NetAddress local_address() const {
    return socket_->local_address();
  }

  // Request dispatch, exposed for tests: the reply text a control
  // datagram containing `command` gets back.
  std::string HandleCommand(std::string_view command);

 private:
  FaultControl(net::FaultFabric* fabric,
               std::unique_ptr<net::DatagramSocket> socket)
      : fabric_(fabric), socket_(std::move(socket)) {}

  net::FaultFabric* fabric_;
  std::unique_ptr<net::DatagramSocket> socket_;
};

}  // namespace circus::rt

#endif  // SRC_RT_FAULT_CONTROL_H_
