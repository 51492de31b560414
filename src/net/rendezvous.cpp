#include "net/rendezvous.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "common/bytes.h"
#include "common/check.h"

namespace pdw::net {

namespace {

// Datagram layout (little-endian):
//   JOIN:    magic, kind=1, node u32, ip u32, port u32
//   WAIT:    magic, kind=2
//   MAP:     magic, kind=3, count u32, count x (ip u32, port u32)
//   MAP_ACK: magic, kind=4, node u32
//   DONE:    magic, kind=5
constexpr uint32_t kRvMagic = 0x50445752u;  // 'PDWR'
constexpr uint32_t kJoin = 1, kWait = 2, kMap = 3, kMapAck = 4, kDone = 5;
// MAP is the largest datagram; kMaxRendezvousNodes bounds it.
constexpr size_t kMapHeaderBytes = 12;
constexpr size_t kMaxMapBytes =
    kMapHeaderBytes + 8 * size_t(kMaxRendezvousNodes);
// How long a joiner holding the map waits for DONE. Only a lost DONE lets
// it run out: then a quiet window means the listener heard our MAP_ACK (it
// resends MAP to every node it has no ack from).
constexpr double kDoneFallbackS = 0.12;

int checked_node_count(int nodes) {
  PDW_CHECK_GE(nodes, 1);
  PDW_CHECK_LE(nodes, kMaxRendezvousNodes);
  return nodes;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void send_to(int fd, const uint8_t* data, size_t len, Endpoint to) {
  const sockaddr_in sa = to_sockaddr(to);
  ::sendto(fd, data, len, 0, reinterpret_cast<const sockaddr*>(&sa),
           sizeof(sa));
}

// Wait up to timeout_s for one datagram. Returns its length, or -1.
ssize_t recv_one(int fd, uint8_t* buf, size_t cap, double timeout_s,
                 Endpoint* from) {
  if (!wait_readable(fd, -1, timeout_s).fd) return -1;
  sockaddr_in sa{};
  socklen_t slen = sizeof(sa);
  const ssize_t n =
      ::recvfrom(fd, buf, cap, 0, reinterpret_cast<sockaddr*>(&sa), &slen);
  *from = from_sockaddr(sa);
  return n;
}

}  // namespace

RendezvousStatus rendezvous_join(Endpoint server, int self, Endpoint local,
                                 int nodes, std::vector<Endpoint>* out,
                                 RendezvousConfig cfg) {
  checked_node_count(nodes);
  Endpoint bound;
  const int fd = open_udp(Endpoint{kLoopbackIp, 0}, &bound);
  PDW_CHECK_GE(fd, 0) << "cannot open the rendezvous join socket";

  uint8_t join[20];
  store_le32(join + 0, kRvMagic);
  store_le32(join + 4, kJoin);
  store_le32(join + 8, uint32_t(self));
  store_le32(join + 12, local.ip);
  store_le32(join + 16, local.port);

  const double deadline = now_s() + cfg.timeout_s;
  double backoff = cfg.backoff_initial_s;
  double next_join = 0;     // JOIN retry pacing (capped backoff)
  double linger_until = 0;  // once the map arrived: lost-DONE fallback
  bool have_map = false;
  bool done = false;

  while (!done) {
    const double t = now_s();
    if (t >= deadline || (have_map && t >= linger_until)) break;
    if (!have_map && t >= next_join) {
      send_to(fd, join, sizeof(join), server);
      next_join = t + backoff;
      backoff = std::min(backoff * 2, cfg.backoff_max_s);
    }
    // WAIT needs no action: the listener knows us and will push MAP.
    const double until = have_map ? linger_until : next_join;
    uint8_t buf[kMaxMapBytes];
    Endpoint from;
    const ssize_t n = recv_one(fd, buf, sizeof(buf),
                               std::min(until, deadline) - t, &from);
    if (n < 8 || load_le32(buf + 0) != kRvMagic) continue;
    const uint32_t kind = load_le32(buf + 4);
    if (kind == kDone) {
      // Every node acked the map: nothing can still need a re-ack.
      done = have_map;
      continue;
    }
    if (kind != kMap || size_t(n) < kMapHeaderBytes) continue;
    const uint32_t count = load_le32(buf + 8);
    if (int(count) != nodes ||
        size_t(n) < kMapHeaderBytes + size_t(count) * 8)
      continue;
    out->resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      (*out)[i].ip = load_le32(buf + kMapHeaderBytes + i * 8);
      (*out)[i].port = uint16_t(load_le32(buf + kMapHeaderBytes + 4 + i * 8));
    }
    // (Re-)ack every MAP: a resend means our previous MAP_ACK was lost.
    uint8_t ack[12];
    store_le32(ack + 0, kRvMagic);
    store_le32(ack + 4, kMapAck);
    store_le32(ack + 8, uint32_t(self));
    send_to(fd, ack, sizeof(ack), server);
    have_map = true;
    linger_until = now_s() + kDoneFallbackS;
  }
  ::close(fd);
  return have_map ? RendezvousStatus::kOk : RendezvousStatus::kTimeout;
}

RendezvousServer::RendezvousServer(int nodes, uint16_t port)
    : nodes_(checked_node_count(nodes)),
      map_(size_t(nodes_)),
      join_source_(size_t(nodes_)),
      joined_(size_t(nodes_), false),
      acked_(size_t(nodes_), false) {
  fd_ = open_udp(Endpoint{kLoopbackIp, port}, &local_);
  PDW_CHECK_GE(fd_, 0) << "cannot bind the rendezvous port " << port;
}

RendezvousServer::~RendezvousServer() {
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) ::close(fd_);
}

RendezvousStatus RendezvousServer::serve(RendezvousConfig cfg) {
  const double deadline = now_s() + cfg.timeout_s;
  double next_push = 0;  // MAP resend pacing once everyone joined
  auto all = [](const std::vector<bool>& v) {
    return std::all_of(v.begin(), v.end(), [](bool b) { return b; });
  };

  while (now_s() < deadline) {
    const bool all_joined = all(joined_);
    if (all_joined && all(acked_)) {
      // Release every joiner from its post-MAP linger. One copy each: a
      // lost DONE only costs that joiner its fallback window.
      uint8_t done[8];
      store_le32(done + 0, kRvMagic);
      store_le32(done + 4, kDone);
      for (const Endpoint& to : join_source_)
        send_to(fd_, done, sizeof(done), to);
      return RendezvousStatus::kOk;
    }

    uint8_t buf[64];
    Endpoint from;
    const ssize_t n = recv_one(fd_, buf, sizeof(buf), 0.05, &from);
    const double t = now_s();

    if (n >= 8 && load_le32(buf + 0) == kRvMagic) {
      const uint32_t kind = load_le32(buf + 4);
      if (kind == kJoin && n >= 20) {
        const uint32_t node = load_le32(buf + 8);
        if (node < uint32_t(nodes_)) {
          map_[node] =
              Endpoint{load_le32(buf + 12), uint16_t(load_le32(buf + 16))};
          join_source_[node] = from;
          joined_[node] = true;
          if (!all_joined) {
            // Not complete yet (this JOIN may have completed it; the next
            // loop iteration pushes the map). Tell the joiner to hold on.
            uint8_t wait[8];
            store_le32(wait + 0, kRvMagic);
            store_le32(wait + 4, kWait);
            send_to(fd_, wait, sizeof(wait), from);
          }
        }
      } else if (kind == kMapAck && n >= 12) {
        const uint32_t node = load_le32(buf + 8);
        if (node < uint32_t(nodes_)) acked_[node] = true;
      }
    }

    if (all(joined_) && t >= next_push) {
      if (!transformed_) {
        handout_ = transform_ ? transform_(map_) : map_;
        PDW_CHECK_EQ(int(handout_.size()), nodes_);
        transformed_ = true;
      }
      // Push MAP to every unacked joiner (initial send and loss recovery).
      uint8_t map[kMaxMapBytes];
      store_le32(map + 0, kRvMagic);
      store_le32(map + 4, kMap);
      store_le32(map + 8, uint32_t(nodes_));
      for (int i = 0; i < nodes_; ++i) {
        store_le32(map + kMapHeaderBytes + size_t(i) * 8,
                   handout_[size_t(i)].ip);
        store_le32(map + kMapHeaderBytes + 4 + size_t(i) * 8,
                   handout_[size_t(i)].port);
      }
      const size_t map_len = kMapHeaderBytes + size_t(nodes_) * 8;
      for (int i = 0; i < nodes_; ++i) {
        // MAP goes to the joiner's rendezvous socket (the JOIN source), not
        // its fabric endpoint — they are different sockets.
        if (!acked_[size_t(i)])
          send_to(fd_, map, map_len, join_source_[size_t(i)]);
      }
      next_push = t + 0.05;
    }
  }
  return RendezvousStatus::kTimeout;
}

void RendezvousServer::serve_async(RendezvousConfig cfg) {
  thread_ = std::thread([this, cfg] { async_result_ = serve(cfg); });
}

RendezvousStatus RendezvousServer::result() {
  if (thread_.joinable()) thread_.join();
  return async_result_;
}

}  // namespace pdw::net
