#include "net/socket_fabric.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <linux/errqueue.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/bytes.h"

namespace pdw::net {

namespace {

// Datagram layout (little-endian): the full Message header plus
// fragmentation fields, integrity-checked by a trailing header CRC so a
// corrupt header can never misroute bytes into the wrong reassembly slot
// (payload integrity stays end-to-end in ReliableEndpoint's envelope).
//
//   off  field
//    0   magic          u32  'PDWF'
//    4   src            i32
//    8   type           i32
//   12   seq            u32
//   16   aux            u16
//   18   stream         u8
//   19   bulk           u8
//   20   tseq           u32
//   24   crc            u32  (payload CRC-32, stamped by ReliableEndpoint)
//   28   msg_id         u32  (per-sender reassembly key)
//   32   frag_index     u16
//   34   frag_count     u16
//   36   payload_total  u32
//   40   frag_off       u32
//   44   header_crc     u32  (CRC-32 of bytes [0, 44))
//   48   payload fragment...
constexpr uint32_t kMagic = 0x50445746u;  // 'PDWF'
constexpr size_t kDgramHeaderBytes = 48;
// Largest fragment payload per datagram (= kMaxFragmentBytes): comfortably
// under the 64 KiB UDP limit. Receive buffers are sized for this maximum
// whatever this node's configured send-side fragment size is.
constexpr size_t kFragBytes = size_t(kMaxFragmentBytes);

uint64_t partial_key(int src, uint32_t msg_id) {
  return (uint64_t(uint32_t(src)) << 32) | msg_id;
}

}  // namespace

SocketFabric::SocketFabric(int self, int nodes, SocketFabricConfig cfg)
    : self_(self),
      nodes_(nodes),
      cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()),
      fenced_(size_t(nodes)),
      traffic_(nodes),
      counters_(size_t(nodes)) {
  PDW_CHECK_GE(self, 0);
  PDW_CHECK_LT(self, nodes);
  frag_bytes_ = size_t(
      std::clamp(cfg_.fragment_bytes, kMinFragmentBytes, kMaxFragmentBytes));
  fd_ = open_udp(Endpoint{kLoopbackIp, 0}, &local_,
                 cfg_.socket_buffer_bytes);
  PDW_CHECK_GE(fd_, 0) << "cannot open the fabric's UDP socket";
  int one = 1;
  ::setsockopt(fd_, IPPROTO_IP, IP_RECVERR, &one, sizeof(one));
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  PDW_CHECK_GE(wake_fd_, 0);

  obs::MetricsRegistry& reg = obs::registry_or_global(cfg_.metrics);
  const obs::Labels l{self_, -1};
  m_dgram_tx_ = &reg.counter(obs::family::kSocketDatagramsTx, l);
  m_dgram_rx_ = &reg.counter(obs::family::kSocketDatagramsRx, l);
  m_rx_drops_ = &reg.counter(obs::family::kSocketRxDrops, l);
  m_peer_unreachable_ = &reg.counter(obs::family::kSocketPeerUnreachable, l);
}

SocketFabric::~SocketFabric() {
  if (fd_ >= 0) ::close(fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void SocketFabric::set_peers(std::vector<Endpoint> peers) {
  PDW_CHECK_EQ(int(peers.size()), nodes_);
  peers_ = std::move(peers);
}

double SocketFabric::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void SocketFabric::post_receive(int node) {
  PDW_CHECK_EQ(node, self_);
  ++credits_;
}

SendStatus SocketFabric::send(int src, int dst, Message msg) {
  PDW_CHECK_EQ(src, self_);
  PDW_CHECK_GE(dst, 0);
  PDW_CHECK_LT(dst, nodes_);
  PDW_CHECK(!peers_.empty());
  if (fenced_[size_t(self_)].load(std::memory_order_relaxed))
    return SendStatus::kSrcDead;
  // Sends to a locally fenced peer vanish silently, same as the in-process
  // fabric's sends to a killed node.
  if (fenced_[size_t(dst)].load(std::memory_order_relaxed))
    return SendStatus::kOk;

  msg.src = src;  // stamped by the fabric, exactly as the in-process one does
  const uint32_t msg_id = next_msg_id_++;
  const size_t total = msg.payload.size();
  const uint16_t frag_count =
      uint16_t(total == 0 ? 1 : (total + frag_bytes_ - 1) / frag_bytes_);
  sockaddr_in sa = to_sockaddr(peers_[size_t(dst)]);

  uint8_t dgram[kDgramHeaderBytes + kFragBytes];
  store_le32(dgram + 0, kMagic);
  store_le32(dgram + 4, uint32_t(msg.src));
  store_le32(dgram + 8, uint32_t(msg.type));
  store_le32(dgram + 12, msg.seq);
  store_le16(dgram + 16, msg.aux);
  dgram[18] = msg.stream;
  dgram[19] = msg.bulk ? 1 : 0;
  store_le32(dgram + 20, msg.tseq);
  store_le32(dgram + 24, msg.crc);
  store_le32(dgram + 28, msg_id);
  store_le16(dgram + 34, frag_count);
  store_le32(dgram + 36, uint32_t(total));

  for (uint16_t i = 0; i < frag_count; ++i) {
    const size_t off = size_t(i) * frag_bytes_;
    const size_t n = std::min(frag_bytes_, total - off);
    store_le16(dgram + 32, i);
    store_le32(dgram + 40, uint32_t(off));
    store_le32(dgram + 44,
            crc32(std::span<const uint8_t>(dgram, kDgramHeaderBytes - 4)));
    if (n > 0) std::memcpy(dgram + kDgramHeaderBytes, msg.payload.data() + off, n);
    ::sendto(fd_, dgram, kDgramHeaderBytes + n, 0,
             reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    m_dgram_tx_->add();
  }

  {
    std::lock_guard<std::mutex> lock(traffic_mu_);
    traffic_.add(self_, dst, msg.wire_bytes());
    counters_[size_t(self_)].sent_bytes += msg.wire_bytes();
    ++counters_[size_t(self_)].sent_messages;
  }
  return SendStatus::kOk;
}

void SocketFabric::finish_message(Message msg) {
  if (msg.src >= 0 && msg.src < nodes_ &&
      fenced_[size_t(msg.src)].load(std::memory_order_relaxed))
    return;
  if (msg.bulk) {
    if (credits_ == 0) {
      // Flow-control overrun. The in-process backend reports kNoCredit to
      // the sender; a socket sender cannot see our buffer state, so the
      // overrun becomes an unacked receiver-side drop that retransmission
      // recovers once a buffer is posted.
      credit_drops_.fetch_add(1, std::memory_order_relaxed);
      m_rx_drops_->add();
      return;
    }
    --credits_;
  }
  {
    std::lock_guard<std::mutex> lock(traffic_mu_);
    traffic_.add(msg.src, self_, msg.wire_bytes());
    counters_[size_t(self_)].recv_bytes += msg.wire_bytes();
    ++counters_[size_t(self_)].recv_messages;
  }
  ready_.push_back(std::move(msg));
  queued_.fetch_add(1, std::memory_order_relaxed);
}

void SocketFabric::ingest(const uint8_t* data, size_t len) {
  if (len < kDgramHeaderBytes || load_le32(data + 0) != kMagic ||
      load_le32(data + 44) !=
          crc32(std::span<const uint8_t>(data, kDgramHeaderBytes - 4))) {
    m_rx_drops_->add();
    return;
  }
  Message msg;
  msg.src = int(load_le32(data + 4));
  msg.type = int(load_le32(data + 8));
  msg.seq = load_le32(data + 12);
  msg.aux = load_le16(data + 16);
  msg.stream = data[18];
  msg.bulk = data[19] != 0;
  msg.tseq = load_le32(data + 20);
  msg.crc = load_le32(data + 24);
  const uint32_t msg_id = load_le32(data + 28);
  const uint16_t frag_index = load_le16(data + 32);
  const uint16_t frag_count = load_le16(data + 34);
  const size_t total = load_le32(data + 36);
  const size_t frag_off = load_le32(data + 40);
  const size_t frag_bytes = len - kDgramHeaderBytes;
  if (msg.src < 0 || msg.src >= nodes_ || frag_count == 0 ||
      frag_index >= frag_count || frag_off + frag_bytes > total) {
    m_rx_drops_->add();
    return;
  }

  if (frag_count == 1) {
    if (frag_bytes != total) {
      m_rx_drops_->add();
      return;
    }
    msg.payload = mem::Bytes::copy_of({data + kDgramHeaderBytes, frag_bytes});
    finish_message(std::move(msg));
    return;
  }

  const uint64_t key = partial_key(msg.src, msg_id);
  auto it = partial_.find(key);
  if (it == partial_.end()) {
    // Evict stale partials (all their remaining fragments were lost; the
    // sender's retransmission arrives under a fresh msg_id) so the map
    // cannot grow without bound under sustained loss.
    if (partial_.size() >= 64) {
      const double t = now();
      for (auto p = partial_.begin(); p != partial_.end();) {
        if (t - p->second.first_seen > 2.0) {
          partial_count_.fetch_sub(1, std::memory_order_relaxed);
          p = partial_.erase(p);
        } else {
          ++p;
        }
      }
    }
    Reassembly r;
    r.body = mem::Bytes::alloc(total);
    r.have.assign(frag_count, false);
    r.missing = frag_count;
    r.header = msg;
    r.first_seen = now();
    it = partial_.emplace(key, std::move(r)).first;
    partial_count_.fetch_add(1, std::memory_order_relaxed);
  }
  Reassembly& r = it->second;
  if (r.body.size() != total || r.have.size() != frag_count) {
    // A msg_id collision with inconsistent framing: distrust both.
    partial_.erase(it);
    partial_count_.fetch_sub(1, std::memory_order_relaxed);
    m_rx_drops_->add();
    return;
  }
  if (r.have[frag_index]) return;  // duplicated fragment
  std::memcpy(r.body.mutable_data() + frag_off, data + kDgramHeaderBytes,
              frag_bytes);
  r.have[frag_index] = true;
  if (--r.missing == 0) {
    Message out = r.header;
    out.payload = std::move(r.body);
    partial_.erase(it);
    partial_count_.fetch_sub(1, std::memory_order_relaxed);
    finish_message(std::move(out));
  }
}

void SocketFabric::drain_socket() {
  uint8_t buf[kDgramHeaderBytes + kFragBytes];
  while (true) {
    const ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0, nullptr, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    m_dgram_rx_->add();
    ingest(buf, size_t(n));
  }
  drain_errqueue();
}

void SocketFabric::drain_errqueue() {
  while (true) {
    uint8_t dummy[1];
    sockaddr_in sa{};
    uint8_t control[256];
    iovec iov{dummy, sizeof(dummy)};
    msghdr mh{};
    mh.msg_name = &sa;
    mh.msg_namelen = sizeof(sa);
    mh.msg_iov = &iov;
    mh.msg_iovlen = 1;
    mh.msg_control = control;
    mh.msg_controllen = sizeof(control);
    if (::recvmsg(fd_, &mh, MSG_ERRQUEUE) < 0) break;
    for (cmsghdr* c = CMSG_FIRSTHDR(&mh); c; c = CMSG_NXTHDR(&mh, c)) {
      if (c->cmsg_level != IPPROTO_IP || c->cmsg_type != IP_RECVERR) continue;
      sock_extended_err ee;
      std::memcpy(&ee, CMSG_DATA(c), sizeof(ee));
      if (ee.ee_errno == ECONNREFUSED || ee.ee_errno == EHOSTUNREACH ||
          ee.ee_errno == ENETUNREACH) {
        // msg_name carries the original destination of the failed send.
        note_peer_error(ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port));
      }
    }
  }
}

void SocketFabric::note_peer_error(uint32_t ip, uint16_t port) {
  for (int n = 0; n < int(peers_.size()); ++n) {
    if (peers_[size_t(n)].ip != ip || peers_[size_t(n)].port != port) continue;
    m_peer_unreachable_->add();
    std::lock_guard<std::mutex> lock(peer_err_mu_);
    if (std::find(peer_errors_.begin(), peer_errors_.end(), n) ==
        peer_errors_.end())
      peer_errors_.push_back(n);
    return;
  }
}

std::vector<int> SocketFabric::take_peer_errors() {
  drain_errqueue();
  std::lock_guard<std::mutex> lock(peer_err_mu_);
  std::vector<int> out;
  out.swap(peer_errors_);
  return out;
}

RecvStatus SocketFabric::receive_for(int node, double timeout_s,
                                     Message* out) {
  PDW_CHECK_EQ(node, self_);
  const RecvStatus st = receive_until(now() + timeout_s, out);
  if (quiescent()) {
    // Release a coordinator blocked in wait_quiescent().
    std::lock_guard<std::mutex> lock(quiet_mu_);
    quiet_cv_.notify_all();
  }
  return st;
}

RecvStatus SocketFabric::receive_until(double deadline, Message* out) {
  while (true) {
    if (fenced_[size_t(self_)].load(std::memory_order_relaxed))
      return RecvStatus::kDead;
    drain_socket();
    if (!ready_.empty()) {
      *out = std::move(ready_.front());
      ready_.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return RecvStatus::kOk;
    }
    if (shutdown_.load(std::memory_order_acquire)) return RecvStatus::kShutdown;
    if (wake_pending_.exchange(false, std::memory_order_acq_rel))
      return RecvStatus::kWoken;
    const double remaining = deadline - now();
    if (remaining <= 0) return RecvStatus::kTimeout;
    // Sleep until a datagram lands, a coordinator writes the eventfd
    // (kill/shutdown/wake), or the deadline; the flags above say which.
    if (wait_readable(fd_, wake_fd_, remaining).wake) {
      uint64_t count;
      [[maybe_unused]] const ssize_t n =
          ::read(wake_fd_, &count, sizeof(count));
    }
  }
}

void SocketFabric::signal_wake() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void SocketFabric::kill(int node) {
  PDW_CHECK_GE(node, 0);
  PDW_CHECK_LT(node, nodes_);
  fenced_[size_t(node)].store(true, std::memory_order_relaxed);
  signal_wake();
}

bool SocketFabric::is_dead(int node) const {
  PDW_CHECK_GE(node, 0);
  PDW_CHECK_LT(node, nodes_);
  return fenced_[size_t(node)].load(std::memory_order_relaxed);
}

NodeCounters SocketFabric::counters(int node) const {
  PDW_CHECK_GE(node, 0);
  PDW_CHECK_LT(node, nodes_);
  std::lock_guard<std::mutex> lock(traffic_mu_);
  return counters_[size_t(node)];
}

TrafficMatrix SocketFabric::traffic_matrix() const {
  std::lock_guard<std::mutex> lock(traffic_mu_);
  return traffic_;
}

bool SocketFabric::quiescent() const {
  return queued_.load(std::memory_order_relaxed) == 0 &&
         partial_count_.load(std::memory_order_relaxed) == 0;
}

bool SocketFabric::wait_quiescent(double timeout_s) {
  std::unique_lock<std::mutex> lock(quiet_mu_);
  return quiet_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                            [&] { return quiescent(); });
}

void SocketFabric::shutdown() {
  shutdown_.store(true, std::memory_order_release);
  signal_wake();
}

void SocketFabric::wake(int node) {
  PDW_CHECK_EQ(node, self_);
  wake_pending_.store(true, std::memory_order_release);
  signal_wake();
}

}  // namespace pdw::net
