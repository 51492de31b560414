#include "common/udp.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>

namespace pdw::net {

sockaddr_in to_sockaddr(Endpoint ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.ip);
  sa.sin_port = htons(ep.port);
  return sa;
}

Endpoint from_sockaddr(const sockaddr_in& sa) {
  return Endpoint{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

int open_udp(Endpoint bind, Endpoint* local, int buffer_bytes) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  if (buffer_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buffer_bytes,
                 sizeof(buffer_bytes));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buffer_bytes,
                 sizeof(buffer_bytes));
  }
  sockaddr_in sa = to_sockaddr(bind);
  socklen_t len = sizeof(sa);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *local = from_sockaddr(sa);
  return fd;
}

Readiness wait_readable(int fd, int wake_fd, double timeout_s) {
  pollfd pfds[2] = {{fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
  const double t = std::max(0.0, timeout_s);
  timespec ts{};
  ts.tv_sec = time_t(t);
  ts.tv_nsec = long(std::lround((t - double(ts.tv_sec)) * 1e9));
  if (ts.tv_nsec >= 1000000000L) {
    ++ts.tv_sec;
    ts.tv_nsec -= 1000000000L;
  }
  Readiness r;
  if (::ppoll(pfds, wake_fd >= 0 ? 2 : 1, &ts, nullptr) <= 0) return r;
  r.fd = (pfds[0].revents & (POLLIN | POLLERR)) != 0;
  r.wake = wake_fd >= 0 && (pfds[1].revents & POLLIN) != 0;
  return r;
}

}  // namespace pdw::net
