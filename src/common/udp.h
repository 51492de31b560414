// The one UDP helper, in pdw_common so the transport (net/) and the
// telemetry sideband below it (obs/) share it: endpoint <-> sockaddr
// conversion, opening a bound nonblocking datagram socket, and a readiness
// wait with microsecond timeouts and an optional wake descriptor.
#pragma once

#include <netinet/in.h>

#include <cstdint>

namespace pdw::net {

// A UDP endpoint in host byte order (ip = 0x7f000001 for loopback).
struct Endpoint {
  uint32_t ip = 0;
  uint16_t port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

inline constexpr uint32_t kLoopbackIp = 0x7f000001u;

sockaddr_in to_sockaddr(Endpoint ep);
Endpoint from_sockaddr(const sockaddr_in& sa);

// Open a nonblocking UDP socket bound to `bind` (port 0: ephemeral) and
// report the address actually bound in *local. buffer_bytes > 0 also
// requests that SO_RCVBUF/SO_SNDBUF depth. Returns -1 if the socket cannot
// be opened or bound: the transport PDW_CHECKs that, best-effort telemetry
// degrades to a no-op.
int open_udp(Endpoint bind, Endpoint* local, int buffer_bytes = 0);

// What ended a wait_readable() call; both false means the timeout passed
// (or a signal interrupted the wait).
struct Readiness {
  bool fd = false;
  bool wake = false;
};

// Block until `fd` or `wake_fd` (ignored when < 0) is readable, or until
// timeout_s passes. ppoll-based, so a sub-millisecond timeout is honoured
// instead of being rounded up to a whole millisecond.
Readiness wait_readable(int fd, int wake_fd, double timeout_s);

}  // namespace pdw::net
