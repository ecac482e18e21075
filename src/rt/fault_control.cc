#include "src/rt/fault_control.h"

#include <string>
#include <utility>

#include "src/common/log.h"

namespace circus::rt {
namespace {

sim::Task<void> ServeFaults(FaultControl* control,
                            net::DatagramSocket* socket) {
  for (;;) {
    net::Datagram request = co_await socket->Receive();
    std::string command(request.payload.begin(), request.payload.end());
    std::string reply = control->HandleCommand(command);
    circus::Bytes bytes(reply.begin(), reply.end());
    co_await socket->Send(request.source, std::move(bytes));
  }
}

}  // namespace

circus::StatusOr<std::unique_ptr<FaultControl>> FaultControl::Open(
    Runtime* runtime, sim::Host* host, net::FaultFabric* fabric,
    net::Port port) {
  circus::StatusOr<std::unique_ptr<net::DatagramSocket>> socket =
      net::DatagramSocket::Open(&runtime->fabric(), host, port);
  if (!socket.ok()) {
    return socket.status();
  }
  std::unique_ptr<FaultControl> control(
      new FaultControl(fabric, std::move(*socket)));
  host->Spawn(ServeFaults(control.get(), control->socket_.get()));
  return control;
}

std::string FaultControl::HandleCommand(std::string_view command) {
  circus::StatusOr<std::string> result = fabric_->ApplyCommand(command);
  if (!result.ok()) {
    return "err " + result.status().message() + "\n";
  }
  CIRCUS_LOG(LogLevel::kInfo)
      << "fault command applied: "
      << std::string(command.substr(0, 96))
      << " -> " << fabric_->StatusLine();
  std::string reply = *std::move(result);
  if (reply.empty() || reply.back() != '\n') {
    reply += '\n';
  }
  // One datagram per reply, same framing discipline as introspect.
  if (reply.size() > kMaxQueryReplyBytes) {
    reply.resize(kMaxQueryReplyBytes - 4);
    reply += "...\n";
  }
  return reply;
}

}  // namespace circus::rt
