#include "src/rt/udp_fabric.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "src/common/check.h"

namespace circus::rt {

namespace {

// Datagrams one recvmmsg call reads at most. A shorter batch means the
// socket is drained (epoll is level-triggered, so a datagram arriving
// after the call wakes the loop again).
constexpr unsigned kRecvBatch = 16;
// One byte over the largest datagram, so an oversize one shows up as
// such instead of being split.
constexpr size_t kRecvSlotBytes = kLoopbackDatagramBytes + 1;

// The drop count the kernel attaches (SO_RXQ_OVFL) to a datagram once
// its socket has dropped any: the socket's total so far.
std::optional<uint32_t> KernelDropCount(msghdr* header) {
  for (cmsghdr* c = CMSG_FIRSTHDR(header); c != nullptr;
       c = CMSG_NXTHDR(header, c)) {
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SO_RXQ_OVFL) {
      uint32_t count = 0;
      std::memcpy(&count, CMSG_DATA(c), sizeof(count));
      return count;
    }
  }
  return std::nullopt;
}

// The default port-0 scan offset: a hash of the process id.
uint32_t ProcessScanOffset() {
  return static_cast<uint32_t>(getpid()) * 2654435761u;
}

sockaddr_in ToSockaddr(net::NetAddress addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.host);
  sa.sin_port = htons(addr.port);
  return sa;
}

net::NetAddress FromSockaddr(const sockaddr_in& sa) {
  return net::NetAddress{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

}  // namespace

struct UdpFabric::RecvBatch {
  // Points each header at its slot, name and control buffer, re-arming
  // the lengths and flags the previous call overwrote.
  void Reset() {
    for (unsigned i = 0; i < kRecvBatch; ++i) {
      iov[i] = {slot(i), kRecvSlotBytes};
      msghdr& h = headers[i].msg_hdr;
      h.msg_iov = &iov[i];
      h.msg_iovlen = 1;
      h.msg_name = &names[i];
      h.msg_namelen = sizeof(names[i]);
      h.msg_control = control[i];
      h.msg_controllen = sizeof(control[i]);
      h.msg_flags = 0;
    }
  }

  unsigned char* slot(unsigned i) { return data.get() + i * kRecvSlotBytes; }

  // Left uninitialised: a page becomes resident only once a datagram
  // that long lands in it.
  std::unique_ptr<unsigned char[]> data =
      std::make_unique_for_overwrite<unsigned char[]>(kRecvBatch *
                                                      kRecvSlotBytes);
  std::array<mmsghdr, kRecvBatch> headers{};
  std::array<iovec, kRecvBatch> iov{};
  std::array<sockaddr_in, kRecvBatch> names{};
  alignas(cmsghdr) char control[kRecvBatch][CMSG_SPACE(sizeof(uint32_t))] =
      {};
};

UdpFabric::UdpFabric(IoLoop* loop)
    : loop_(loop),
      recv_(std::make_unique<RecvBatch>()),
      scan_offset_(ProcessScanOffset()) {}

UdpFabric::~UdpFabric() {
  // Sockets normally unbind themselves (Close / crash listener) before
  // the fabric dies; anything left gets its fd reclaimed here.
  for (auto& [socket, binding] : bindings_) {
    loop_->UnwatchFd(binding.fd);
    close(binding.fd);
  }
}

void UdpFabric::AttachHost(sim::Host* host, net::HostAddress interface_ip) {
  CIRCUS_CHECK(!net::IsMulticastHost(interface_ip));
  host_ip_[host->id()] = interface_ip;
}

net::HostAddress UdpFabric::AddressOfHost(sim::Host::HostId id) const {
  auto it = host_ip_.find(id);
  CIRCUS_CHECK_MSG(it != host_ip_.end(), "host not attached");
  return it->second;
}

size_t UdpFabric::MaxDatagramBytes(sim::Host::HostId id) const {
  return (AddressOfHost(id) >> 24) == 127 ? kLoopbackDatagramBytes
                                          : kEthernetDatagramBytes;
}

circus::StatusOr<UdpFabric::Binding> UdpFabric::OpenAndBind(
    net::HostAddress ip, net::Port port) {
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return circus::Status(circus::ErrorCode::kUnavailable,
                          std::string("socket: ") + std::strerror(errno));
  }
  // Best effort: without it, kernel drops go uncounted.
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one));
  if (port != 0) {
    sockaddr_in sa = ToSockaddr(net::NetAddress{ip, port});
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const int err = errno;
      close(fd);
      if (err == EADDRINUSE) {
        return circus::Status(circus::ErrorCode::kAlreadyExists,
                              "port already bound");
      }
      return circus::Status(circus::ErrorCode::kUnavailable,
                            std::string("bind: ") + std::strerror(err));
    }
    return Binding{fd, net::NetAddress{ip, port}};
  }
  // Port 0: draw from the fabric's ephemeral range ourselves so the
  // range knob (and its exhaustion failure mode) behaves exactly as on
  // the simulated Network, but from this process's offset into it.
  const int range = ephemeral_hi_ - ephemeral_lo_ + 1;
  if (next_ephemeral_port_ < ephemeral_lo_ ||
      next_ephemeral_port_ > ephemeral_hi_) {
    next_ephemeral_port_ =
        static_cast<net::Port>(ephemeral_lo_ + scan_offset_ % range);
  }
  for (int attempts = 0; attempts < range; ++attempts) {
    const net::Port p = next_ephemeral_port_++;
    if (next_ephemeral_port_ > ephemeral_hi_) {
      next_ephemeral_port_ = ephemeral_lo_;
    }
    sockaddr_in sa = ToSockaddr(net::NetAddress{ip, p});
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0) {
      return Binding{fd, net::NetAddress{ip, p}};
    }
    if (errno != EADDRINUSE) {
      const int err = errno;
      close(fd);
      return circus::Status(circus::ErrorCode::kUnavailable,
                            std::string("bind: ") + std::strerror(err));
    }
  }
  close(fd);
  return circus::Status(circus::ErrorCode::kUnavailable,
                        "ephemeral ports exhausted");
}

circus::StatusOr<net::NetAddress> UdpFabric::Bind(net::DatagramSocket* socket,
                                                  net::Port port) {
  const net::HostAddress ip = AddressOfHost(socket->host()->id());
  circus::StatusOr<Binding> binding = OpenAndBind(ip, port);
  if (!binding.ok()) {
    return binding.status();
  }
  if (kernel_drops_metric_ == nullptr && metrics() != nullptr) {
    kernel_drops_metric_ = metrics()->GetCounter("rt.socket.kernel_drops");
  }
  bindings_[socket] = *binding;
  by_address_[binding->local] = socket;
  const int fd = binding->fd;
  loop_->WatchFd(fd, [this, socket] { DrainFd(socket); });
  return binding->local;
}

void UdpFabric::Unbind(net::DatagramSocket* socket) {
  auto it = bindings_.find(socket);
  if (it == bindings_.end()) {
    return;
  }
  loop_->UnwatchFd(it->second.fd);
  close(it->second.fd);
  by_address_.erase(it->second.local);
  bindings_.erase(it);
  for (auto& [group, members] : groups_) {
    members.erase(socket);
  }
}

void UdpFabric::JoinGroup(net::HostAddress group,
                          net::DatagramSocket* socket) {
  CIRCUS_CHECK(net::IsMulticastHost(group));
  groups_[group].insert(socket);
}

void UdpFabric::LeaveGroup(net::HostAddress group,
                           net::DatagramSocket* socket) {
  auto it = groups_.find(group);
  if (it != groups_.end()) {
    it->second.erase(socket);
    if (it->second.empty()) {
      groups_.erase(it);
    }
  }
}

size_t UdpFabric::TotalReceiveBacklog() const {
  size_t total = 0;
  for (const auto& [address, socket] : by_address_) {
    total += socket->queued();
  }
  return total;
}

void UdpFabric::Transmit(sim::Host* sender, net::Datagram datagram) {
  CIRCUS_CHECK_MSG(
      datagram.payload.size() <= MaxDatagramBytes(sender->id()),
      "datagram exceeds network MTU");
  ++stats_.packets_sent;
  stats_.bytes_sent += datagram.payload.size();
  ObserveSend(sender, datagram);
  auto src = by_address_.find(datagram.source);
  if (src == by_address_.end()) {
    // Source socket raced with close; a real kernel would have no fd to
    // send on either.
    ++stats_.send_errors;
    return;
  }
  const int fd = bindings_[src->second].fd;
  auto send_to = [&](net::NetAddress dest) {
    sockaddr_in sa = ToSockaddr(dest);
    const ssize_t n =
        sendto(fd, datagram.payload.data(), datagram.payload.size(), 0,
               reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    if (n < 0) {
      // Datagram semantics: send failures (full buffers, unreachable)
      // are silent drops to the protocol layers — but backpressure is
      // the one drop cause an operator can act on, so it is counted and
      // published separately.
      const int err = errno;
      ++stats_.send_errors;
      if (err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS) {
        ++stats_.backpressure;
        if (metrics() != nullptr) {
          metrics()->GetCounter("rt.socket.backpressure")->Increment();
        }
        if (event_bus() != nullptr && event_bus()->active()) {
          obs::Event e;
          e.kind = obs::EventKind::kSocketStall;
          e.host = sender->id();
          e.origin = obs::PackAddress(datagram.source.host,
                                      datagram.source.port);
          e.a = obs::PackAddress(dest.host, dest.port);
          e.c = static_cast<uint64_t>(err);
          event_bus()->Publish(std::move(e));
        }
      }
    }
  };
  if (datagram.destination.is_multicast()) {
    auto it = groups_.find(datagram.destination.host);
    if (it == groups_.end()) {
      return;
    }
    // Emulated multicast: one unicast copy per locally joined socket
    // (see header). The wire carries the group address inside the
    // segment, so receivers observe the same bytes as under real
    // multicast.
    for (net::DatagramSocket* member : it->second) {
      send_to(member->local_address());
    }
    return;
  }
  send_to(datagram.destination);
}

void UdpFabric::DrainFd(net::DatagramSocket* socket) {
  auto it = bindings_.find(socket);
  if (it == bindings_.end()) {
    return;
  }
  Binding& binding = it->second;
  const size_t limit = MaxDatagramBytes(socket->host()->id());
  RecvBatch& batch = *recv_;
  for (;;) {
    batch.Reset();
    const int n = recvmmsg(binding.fd, batch.headers.data(), kRecvBatch,
                           MSG_DONTWAIT, nullptr);
    if (n <= 0) {
      // EAGAIN: drained. Anything else: treat like a lost datagram.
      return;
    }
    // The newest datagram carries the socket's latest drop total.
    if (std::optional<uint32_t> total =
            KernelDropCount(&batch.headers[n - 1].msg_hdr);
        total.has_value() && *total != binding.kernel_drops) {
      const uint32_t fresh = *total - binding.kernel_drops;
      binding.kernel_drops = *total;
      stats_.kernel_drops += fresh;
      if (kernel_drops_metric_ != nullptr) {
        kernel_drops_metric_->Add(fresh);
      }
    }
    for (int i = 0; i < n; ++i) {
      const mmsghdr& m = batch.headers[i];
      if (m.msg_len > limit || (m.msg_hdr.msg_flags & MSG_TRUNC) != 0) {
        ++stats_.truncated;
        continue;
      }
      ++stats_.packets_delivered;
      stats_.bytes_delivered += m.msg_len;
      net::Datagram d;
      d.source = FromSockaddr(batch.names[i]);
      d.destination = binding.local;
      d.payload.assign(batch.slot(i), batch.slot(i) + m.msg_len);
      Deliver(socket, std::move(d));
    }
    if (static_cast<unsigned>(n) < kRecvBatch) {
      return;
    }
  }
}

}  // namespace circus::rt
