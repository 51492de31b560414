// The real-socket transport: UDP datagram framing, fragmentation and
// reassembly, receiver-side flow control, rendezvous discovery, ICMP-driven
// peer-death detection, the adaptive RTO estimator, and the reliable layer
// surviving a deterministically impaired loopback path.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "net/impair.h"
#include "net/reliable.h"
#include "net/rendezvous.h"
#include "net/socket_fabric.h"
#include "common/udp.h"

namespace pdw::net {
namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Receive one datagram on a raw UDP socket (the test's stand-in peer).
std::vector<uint8_t> recv_datagram(int fd, Endpoint* from = nullptr) {
  if (!wait_readable(fd, -1, 5.0).fd) return {};
  std::vector<uint8_t> buf(64 * 1024);
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  const ssize_t n = ::recvfrom(fd, buf.data(), buf.size(), 0,
                               reinterpret_cast<sockaddr*>(&sa), &len);
  if (n < 0) return {};
  if (from) *from = from_sockaddr(sa);
  buf.resize(size_t(n));
  return buf;
}

// Wire two fabrics to each other (and themselves — self rows are unused).
void wire(std::vector<SocketFabric*> fabrics) {
  std::vector<Endpoint> map;
  for (SocketFabric* f : fabrics) map.push_back(f->local_endpoint());
  for (SocketFabric* f : fabrics) f->set_peers(map);
}

Message make_msg(int src, int type, uint32_t seq, size_t payload_bytes,
                 uint8_t fill = 0xab) {
  Message m;
  m.src = src;
  m.type = type;
  m.seq = seq;
  m.payload = mem::Bytes::alloc(payload_bytes);
  std::memset(m.payload.mutable_data(), fill, payload_bytes);
  return m;
}

// --- Hole-timeout derivation (documented worst case, pinned) ---------------

TEST(ReliableConfigDerivation, FixedRtoHoleTimeoutMatchesRetransmissionSpan) {
  ReliableConfig cfg;
  cfg.adaptive_rto = false;
  cfg.rto_initial_s = 0.004;
  cfg.rto_max_s = 0.064;
  cfg.max_retries = 12;
  // Worst-case sender span: timeouts double from rto_initial, capped at
  // rto_max, across the initial send plus max_retries retries:
  // 0.004 + 0.008 + 0.016 + 0.032 + 9 * 0.064 = 0.636. The receiver waits
  // 4x that plus scheduling slack before skipping a hole.
  EXPECT_NEAR(derive_hole_timeout(cfg), 4 * 0.636 + 0.1, 1e-9);
}

TEST(ReliableConfigDerivation, AdaptiveRtoDerivesFromWorstCaseRto) {
  ReliableConfig cfg;
  cfg.adaptive_rto = true;
  cfg.rto_initial_s = 0.004;
  cfg.rto_max_s = 0.064;
  cfg.max_retries = 12;
  // Adaptive RTO can sit at the ceiling the whole time, so the derivation
  // must assume every timeout is rto_max: 13 * 0.064 = 0.832.
  EXPECT_NEAR(derive_hole_timeout(cfg), 4 * 0.832 + 0.1, 1e-9);
}

TEST(ReliableConfigDerivation, EndpointAppliesDerivations) {
  Fabric f(2);
  ReliableConfig cfg;
  cfg.adaptive_rto = true;  // rto_min_s = 0 must derive to rto_initial_s
  ReliableEndpoint ep(&f, 0, cfg);
  EXPECT_DOUBLE_EQ(ep.rto_min_s(), cfg.rto_initial_s);
  EXPECT_NEAR(ep.hole_timeout_s(), derive_hole_timeout(cfg), 1e-9);
  // An explicit hole timeout is honored as-is.
  cfg.hole_timeout_s = 7.5;
  ReliableEndpoint ep2(&f, 1, cfg);
  EXPECT_DOUBLE_EQ(ep2.hole_timeout_s(), 7.5);
}

// --- Datagram framing ------------------------------------------------------

TEST(SocketFabric, RoundTripPreservesEveryHeaderField) {
  SocketFabric a(0, 2), b(1, 2);
  wire({&a, &b});
  Message m = make_msg(0, -7, 42, 100, 0x5c);
  m.aux = 7;
  m.stream = 3;
  m.tseq = 99;
  m.crc = 0xdeadbeef;
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  Message got;
  ASSERT_EQ(b.receive_for(1, 2.0, &got), RecvStatus::kOk);
  EXPECT_EQ(got.src, 0);
  EXPECT_EQ(got.type, -7);  // negative types (transport acks) survive
  EXPECT_EQ(got.seq, 42u);
  EXPECT_EQ(got.aux, 7);
  EXPECT_EQ(got.stream, 3);
  EXPECT_EQ(got.tseq, 99u);
  EXPECT_EQ(got.crc, 0xdeadbeefu);
  ASSERT_EQ(got.payload.size(), 100u);
  for (uint8_t byte : got.payload.span()) EXPECT_EQ(byte, 0x5c);
}

TEST(SocketFabric, DatagramHeaderIsLittleEndianOnTheWire) {
  SocketFabric a(0, 2);
  Endpoint raw_ep;
  const int raw = open_udp(Endpoint{kLoopbackIp, 0}, &raw_ep);
  a.set_peers({a.local_endpoint(), raw_ep});
  Message m;
  m.type = 0x01020304;
  m.seq = 0x05060708;
  m.aux = 0x090a;
  m.stream = 0x0b;
  m.bulk = true;
  m.tseq = 0x0c0d0e0f;
  m.crc = 0x11121314;
  m.payload = mem::Bytes::copy_of(std::vector<uint8_t>{0xaa, 0xbb, 0xcc});
  ASSERT_EQ(a.send(0, 1, m), SendStatus::kOk);
  const std::vector<uint8_t> got = recv_datagram(raw);
  ::close(raw);

  const std::vector<uint8_t> header = {
      0x46, 0x57, 0x44, 0x50,  // magic 0x50445746
      0x00, 0x00, 0x00, 0x00,  // src 0
      0x04, 0x03, 0x02, 0x01,  // type
      0x08, 0x07, 0x06, 0x05,  // seq
      0x0a, 0x09,              // aux
      0x0b,                    // stream
      0x01,                    // bulk
      0x0f, 0x0e, 0x0d, 0x0c,  // tseq
      0x14, 0x13, 0x12, 0x11,  // payload crc
      0x01, 0x00, 0x00, 0x00,  // msg_id: this fabric's first message
      0x00, 0x00,              // frag_index
      0x01, 0x00,              // frag_count
      0x03, 0x00, 0x00, 0x00,  // payload_total
      0x00, 0x00, 0x00, 0x00,  // frag_off
  };
  const uint32_t hcrc = crc32(header);
  std::vector<uint8_t> want = header;
  for (int i = 0; i < 4; ++i) want.push_back(uint8_t(hcrc >> (8 * i)));
  want.insert(want.end(), {0xaa, 0xbb, 0xcc});
  EXPECT_EQ(got, want);
}

TEST(SocketFabric, LargePayloadIsFragmentedAndReassembled) {
  SocketFabric a(0, 2), b(1, 2);
  wire({&a, &b});
  const size_t big = 300 * 1024;  // several 56 KiB fragments
  Message m = make_msg(0, 1, 0, big);
  for (size_t i = 0; i < big; ++i)
    m.payload.mutable_data()[i] = uint8_t(i * 31 + (i >> 9));
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  Message got;
  ASSERT_EQ(b.receive_for(1, 2.0, &got), RecvStatus::kOk);
  ASSERT_EQ(got.payload.size(), big);
  for (size_t i = 0; i < big; ++i)
    ASSERT_EQ(got.payload.data()[i], uint8_t(i * 31 + (i >> 9))) << i;
  EXPECT_TRUE(b.quiescent());
}

TEST(SocketFabric, FragmentBytesIsClampedToTheDocumentedRange) {
  SocketFabricConfig cfg;
  EXPECT_EQ(SocketFabric(0, 1, cfg).fragment_bytes(),
            size_t(kMaxFragmentBytes));  // default unchanged: 56 KiB
  cfg.fragment_bytes = 512;  // below the floor
  EXPECT_EQ(SocketFabric(0, 1, cfg).fragment_bytes(),
            size_t(kMinFragmentBytes));
  cfg.fragment_bytes = 1 << 20;  // above the 64 KiB-datagram-safe ceiling
  EXPECT_EQ(SocketFabric(0, 1, cfg).fragment_bytes(),
            size_t(kMaxFragmentBytes));
  cfg.fragment_bytes = 8192;
  EXPECT_EQ(SocketFabric(0, 1, cfg).fragment_bytes(), 8192u);
}

TEST(SocketFabric, SmallFragmentsRoundTripAndInteropWithDefaultReceiver) {
  // Sender fragments at 4 KiB; the receiver is left at the default 56 KiB.
  // Reassembly is driven by the per-datagram framing fields, so mismatched
  // settings must interoperate.
  SocketFabricConfig small;
  small.fragment_bytes = kMinFragmentBytes;
  SocketFabric a(0, 2, small), b(1, 2);
  wire({&a, &b});
  const size_t big = 100 * 1024;  // 25 fragments at 4 KiB
  Message m = make_msg(0, 1, 5, big);
  for (size_t i = 0; i < big; ++i)
    m.payload.mutable_data()[i] = uint8_t(i * 13 + (i >> 8));
  m.aux = 3;
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  Message got;
  ASSERT_EQ(b.receive_for(1, 2.0, &got), RecvStatus::kOk);
  EXPECT_EQ(got.seq, 5u);
  EXPECT_EQ(got.aux, 3);
  ASSERT_EQ(got.payload.size(), big);
  for (size_t i = 0; i < big; ++i)
    ASSERT_EQ(got.payload.data()[i], uint8_t(i * 13 + (i >> 8))) << i;
  EXPECT_TRUE(b.quiescent());

  // And the reverse direction: 56 KiB fragments into a 4 KiB-configured
  // receiver (receive buffers are sized for the max either way).
  Message back = make_msg(1, 2, 9, big, 0x3e);
  ASSERT_EQ(b.send(1, 0, std::move(back)), SendStatus::kOk);
  ASSERT_EQ(a.receive_for(0, 2.0, &got), RecvStatus::kOk);
  ASSERT_EQ(got.payload.size(), big);
  for (uint8_t byte : got.payload.span()) ASSERT_EQ(byte, 0x3e);
}

TEST(SocketFabric, BulkWithoutCreditIsDroppedAndRecoverable) {
  SocketFabric a(0, 2), b(1, 2);
  wire({&a, &b});
  Message m = make_msg(0, 1, 0, 64);
  m.bulk = true;
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  Message got;
  EXPECT_EQ(b.receive_for(1, 0.2, &got), RecvStatus::kTimeout);
  EXPECT_EQ(b.credit_drops(), 1u);
  // With a buffer posted, the (re)sent copy goes through.
  b.post_receive(1);
  Message again = make_msg(0, 1, 0, 64);
  again.bulk = true;
  ASSERT_EQ(a.send(0, 1, std::move(again)), SendStatus::kOk);
  ASSERT_EQ(b.receive_for(1, 2.0, &got), RecvStatus::kOk);
  EXPECT_TRUE(got.bulk);
}

TEST(SocketFabric, SendToClosedPortReportsPeerError) {
  SocketFabric a(0, 2), b(1, 2);
  Endpoint dead;
  {
    SocketFabric ephemeral(1, 2);
    dead = ephemeral.local_endpoint();
  }  // port closed here
  std::vector<Endpoint> map{a.local_endpoint(), dead};
  a.set_peers(map);
  for (int i = 0; i < 3; ++i) {
    a.send(0, 1, make_msg(0, 1, uint32_t(i), 32));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::vector<int> errs = a.take_peer_errors();
    if (!errs.empty()) {
      EXPECT_EQ(errs[0], 1);
      return;
    }
  }
  FAIL() << "no peer error after sends to a closed port";
  (void)b;
}

TEST(SocketFabric, ShutdownKillAndWakeInterruptABlockedReceive) {
  // The receive blocks in ppoll on the socket plus an eventfd; each
  // coordinator action writes the eventfd, so the blocked thread returns at
  // once instead of at the end of a polling slice.
  struct Case {
    const char* name;
    std::function<void(SocketFabric&)> act;
    RecvStatus want;
  };
  const Case cases[] = {
      {"shutdown", [](SocketFabric& f) { f.shutdown(); },
       RecvStatus::kShutdown},
      {"kill(self)", [](SocketFabric& f) { f.kill(0); }, RecvStatus::kDead},
      {"wake(self)", [](SocketFabric& f) { f.wake(0); }, RecvStatus::kWoken},
  };
  for (const Case& c : cases) {
    std::vector<double> latency;
    for (int rep = 0; rep < 7; ++rep) {
      SocketFabric f(0, 1);
      RecvStatus st = RecvStatus::kOk;
      Clock::time_point returned;
      std::thread th([&] {
        Message m;
        st = f.receive_for(0, 5.0, &m);
        returned = Clock::now();
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const Clock::time_point acted = Clock::now();
      c.act(f);
      th.join();
      EXPECT_EQ(st, c.want) << c.name;
      latency.push_back(seconds(returned - acted));
    }
    EXPECT_LT(median(latency), 0.005) << c.name;
  }
}

TEST(SocketFabric, SubMillisecondReceiveTimeoutIsHonoured) {
  SocketFabric f(0, 1);
  std::vector<double> elapsed;
  for (int rep = 0; rep < 21; ++rep) {
    Message m;
    const Clock::time_point t0 = Clock::now();
    EXPECT_EQ(f.receive_for(0, 0.0002, &m), RecvStatus::kTimeout);
    elapsed.push_back(seconds(Clock::now() - t0));
  }
  EXPECT_GE(median(elapsed), 0.0002);
  EXPECT_LT(median(elapsed), 0.001);
}

// --- Rendezvous ------------------------------------------------------------

TEST(Rendezvous, AllJoinersReceiveTheSameCompleteMap) {
  const int n = 4;
  RendezvousServer server(n);
  RendezvousConfig cfg;
  cfg.timeout_s = 5.0;
  server.serve_async(cfg);

  std::vector<Endpoint> locals(n);
  for (int i = 0; i < n; ++i)
    locals[size_t(i)] = Endpoint{kLoopbackIp, uint16_t(9000 + i)};
  std::vector<std::vector<Endpoint>> maps(n);
  std::vector<RendezvousStatus> status(n, RendezvousStatus::kTimeout);
  std::vector<std::thread> joiners;
  for (int i = 0; i < n; ++i)
    joiners.emplace_back([&, i] {
      status[size_t(i)] = rendezvous_join(server.endpoint(), i,
                                          locals[size_t(i)], n,
                                          &maps[size_t(i)], cfg);
    });
  for (auto& t : joiners) t.join();
  EXPECT_EQ(server.result(), RendezvousStatus::kOk);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(status[size_t(i)], RendezvousStatus::kOk) << i;
    ASSERT_EQ(maps[size_t(i)].size(), size_t(n));
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(maps[size_t(i)][size_t(j)].ip, locals[size_t(j)].ip);
      EXPECT_EQ(maps[size_t(i)][size_t(j)].port, locals[size_t(j)].port);
    }
  }
}

TEST(Rendezvous, JoinTimesOutWithoutAListener) {
  RendezvousConfig cfg;
  cfg.timeout_s = 0.3;
  std::vector<Endpoint> map;
  // Port 9 (discard) on loopback: nothing rendezvous-shaped listens there.
  EXPECT_EQ(rendezvous_join(Endpoint{kLoopbackIp, 9}, 0,
                            Endpoint{kLoopbackIp, 1000}, 2, &map, cfg),
            RendezvousStatus::kTimeout);
}

TEST(Rendezvous, MapTransformSubstitutesHandedOutEndpoints) {
  const int n = 2;
  RendezvousServer server(n);
  server.set_map_transform([](const std::vector<Endpoint>& real) {
    std::vector<Endpoint> fronts = real;
    for (Endpoint& ep : fronts) ep.port = uint16_t(ep.port + 1);
    return fronts;
  });
  RendezvousConfig cfg;
  cfg.timeout_s = 5.0;
  server.serve_async(cfg);
  std::vector<std::vector<Endpoint>> maps(n);
  std::vector<std::thread> joiners;
  for (int i = 0; i < n; ++i)
    joiners.emplace_back([&, i] {
      std::vector<Endpoint> got;
      rendezvous_join(server.endpoint(), i,
                      Endpoint{kLoopbackIp, uint16_t(7000 + i)}, n, &got, cfg);
      maps[size_t(i)] = got;
    });
  for (auto& t : joiners) t.join();
  EXPECT_EQ(server.result(), RendezvousStatus::kOk);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(maps[size_t(i)].size(), size_t(n));
    EXPECT_EQ(maps[size_t(i)][0].port, 7001);
    EXPECT_EQ(maps[size_t(i)][1].port, 7002);
  }
}

TEST(Rendezvous, DoneReleasesEveryJoinerWellInsideTheFallbackWindow) {
  // Without DONE every joiner would linger a 0.12 s quiet window after MAP.
  const int n = 7;
  std::vector<double> sessions;
  for (int rep = 0; rep < 5; ++rep) {
    RendezvousServer server(n);
    RendezvousConfig cfg;
    cfg.timeout_s = 5.0;
    server.serve_async(cfg);
    std::vector<RendezvousStatus> status(n, RendezvousStatus::kTimeout);
    std::vector<double> took(n, 0);
    std::vector<std::thread> joiners;
    for (int i = 0; i < n; ++i)
      joiners.emplace_back([&, i] {
        const Clock::time_point t0 = Clock::now();
        std::vector<Endpoint> map;
        status[size_t(i)] =
            rendezvous_join(server.endpoint(), i,
                            Endpoint{kLoopbackIp, uint16_t(9000 + i)}, n,
                            &map, cfg);
        took[size_t(i)] = seconds(Clock::now() - t0);
      });
    for (auto& t : joiners) t.join();
    EXPECT_EQ(server.result(), RendezvousStatus::kOk);
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(status[size_t(i)], RendezvousStatus::kOk) << i;
    sessions.push_back(*std::max_element(took.begin(), took.end()));
  }
  EXPECT_LT(median(sessions), 0.06);
}

TEST(Rendezvous, JoinerFallsBackToTheQuietWindowWhenDoneIsLost) {
  // A hand-rolled listener that speaks the protocol byte for byte (pinning
  // its little-endian layout) but never sends DONE.
  Endpoint listener;
  const int fd = open_udp(Endpoint{kLoopbackIp, 0}, &listener);
  RendezvousConfig cfg;
  cfg.timeout_s = 5.0;
  std::vector<Endpoint> map;
  RendezvousStatus status = RendezvousStatus::kTimeout;
  Clock::time_point returned;
  std::thread joiner([&] {
    status = rendezvous_join(listener, 1, Endpoint{kLoopbackIp, 0x1234}, 2,
                             &map, cfg);
    returned = Clock::now();
  });

  Endpoint joiner_ep;
  const std::vector<uint8_t> join = recv_datagram(fd, &joiner_ep);
  const std::vector<uint8_t> map_dgram = {
      0x52, 0x57, 0x44, 0x50,  // magic 0x50445752
      0x03, 0x00, 0x00, 0x00,  // MAP
      0x02, 0x00, 0x00, 0x00,  // count
      0x01, 0x00, 0x00, 0x7f, 0x01, 0x20, 0x00, 0x00,  // 127.0.0.1:0x2001
      0x01, 0x00, 0x00, 0x7f, 0x34, 0x12, 0x00, 0x00,  // 127.0.0.1:0x1234
  };
  const sockaddr_in to = to_sockaddr(joiner_ep);
  ::sendto(fd, map_dgram.data(), map_dgram.size(), 0,
           reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  std::vector<uint8_t> ack;
  do {
    ack = recv_datagram(fd);  // skip JOIN retries until the MAP_ACK
  } while (ack.size() == join.size());
  const Clock::time_point acked = Clock::now();
  joiner.join();
  ::close(fd);

  const std::vector<uint8_t> want_join = {
      0x52, 0x57, 0x44, 0x50,  // magic
      0x01, 0x00, 0x00, 0x00,  // JOIN
      0x01, 0x00, 0x00, 0x00,  // node 1
      0x01, 0x00, 0x00, 0x7f,  // ip 127.0.0.1
      0x34, 0x12, 0x00, 0x00,  // port 0x1234
  };
  const std::vector<uint8_t> want_ack = {
      0x52, 0x57, 0x44, 0x50, 0x04, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(join, want_join);
  EXPECT_EQ(ack, want_ack);
  ASSERT_EQ(status, RendezvousStatus::kOk);
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map[0], (Endpoint{kLoopbackIp, 0x2001}));
  EXPECT_EQ(map[1], (Endpoint{kLoopbackIp, 0x1234}));
  // No DONE: the joiner left through the quiet window, not before it.
  EXPECT_GE(seconds(returned - acked), 0.1);
}

TEST(Rendezvous, NodeCountIsBoundedByTheMapDatagram) {
  EXPECT_THROW(RendezvousServer(kMaxRendezvousNodes + 1), InternalError);
  EXPECT_THROW(RendezvousServer(0), InternalError);
  std::vector<Endpoint> map;
  EXPECT_THROW(rendezvous_join(Endpoint{kLoopbackIp, 9}, 0,
                               Endpoint{kLoopbackIp, 1000},
                               kMaxRendezvousNodes + 1, &map),
               InternalError);

  // The bound itself maps in one datagram: one raw socket joins every node.
  const int n = kMaxRendezvousNodes;
  RendezvousServer server(n);
  RendezvousConfig cfg;
  cfg.timeout_s = 5.0;
  server.serve_async(cfg);
  Endpoint raw_ep;
  const int raw = open_udp(Endpoint{kLoopbackIp, 0}, &raw_ep, 1 << 20);
  const sockaddr_in srv = to_sockaddr(server.endpoint());
  auto send_u32s = [&](std::vector<uint32_t> words) {
    std::vector<uint8_t> d(words.size() * 4);
    for (size_t i = 0; i < words.size(); ++i) store_le32(&d[i * 4], words[i]);
    ::sendto(raw, d.data(), d.size(), 0,
             reinterpret_cast<const sockaddr*>(&srv), sizeof(srv));
  };
  // One JOIN per listener reply (WAIT), so no burst overruns its socket.
  std::vector<uint8_t> got;
  for (int i = 0; i < n; ++i) {
    send_u32s({0x50445752u, 1, uint32_t(i), kLoopbackIp, uint32_t(10000 + i)});
    got = recv_datagram(raw);
  }
  while (!got.empty() && load_le32(&got[4]) != 3u)
    got = recv_datagram(raw);  // the last WAIT, then the first MAP
  // Ack every node until DONE arrives, in paced batches that the
  // listener's socket buffer absorbs; MAPs still arriving mean an ack was
  // lost, so ack again (at most once per MAP round).
  Clock::time_point last_acks;
  for (bool acked = false; !acked;) {
    if (Clock::now() - last_acks > std::chrono::milliseconds(40)) {
      for (int i = 0; i < n; ++i) {
        send_u32s({0x50445752u, 4, uint32_t(i)});
        if (i % 32 == 31)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      last_acks = Clock::now();
    }
    const std::vector<uint8_t> d = recv_datagram(raw);
    acked = d.empty() || load_le32(&d[4]) == 5u;  // DONE (or give up)
  }
  EXPECT_EQ(server.result(), RendezvousStatus::kOk);
  ::close(raw);

  ASSERT_EQ(got.size(), 12 + 8 * size_t(n));
  EXPECT_EQ(load_le32(&got[4]), 3u);  // MAP
  EXPECT_EQ(load_le32(&got[8]), uint32_t(n));
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(load_le32(&got[16 + 8 * size_t(i)]), uint32_t(10000 + i));
}

// --- Adaptive RTO over real sockets ----------------------------------------

TEST(SocketReliable, AdaptiveRtoLearnsFromRttSamples) {
  SocketFabric fa(0, 2), fb(1, 2);
  wire({&fa, &fb});
  ReliableConfig cfg;  // adaptive by default
  ReliableEndpoint tx(&fa, 0, cfg);
  ReliableEndpoint rx(&fb, 1, cfg);
  EXPECT_DOUBLE_EQ(tx.srtt_s(1), 0.0);  // no samples yet

  std::atomic<bool> done{false};
  std::thread pump([&] {
    Message m;
    int received = 0;
    while (received < 20 && !done.load()) {
      if (rx.recv(&m, 0.02) == ReliableEndpoint::Status::kMessage) ++received;
    }
    // Keep t-acking the sender's tail until it has seen every ack.
    while (!done.load()) rx.recv(&m, 0.01);
  });
  for (uint32_t i = 0; i < 20; ++i) {
    tx.send(1, make_msg(0, 1, i, 256));
    Message m;
    tx.recv(&m, 0.005);
  }
  for (int i = 0; i < 1000 && tx.unacked() > 0; ++i) {
    Message m;
    tx.recv(&m, 0.005);
  }
  done.store(true);
  pump.join();

  EXPECT_EQ(tx.unacked(), 0u);
  EXPECT_GT(tx.stats().rtt_samples, 0u);
  EXPECT_GT(tx.srtt_s(1), 0.0);
  EXPECT_LT(tx.srtt_s(1), 0.05);  // loopback: well under 50 ms
  EXPECT_GE(tx.rto_s(1), tx.rto_min_s());
  EXPECT_LE(tx.rto_s(1), cfg.rto_max_s);
}

// --- Reliable delivery through the impaired path (satellite: seeded sweep) -

struct SweepResult {
  ReliableStats tx_stats;
  ReliableStats rx_stats;
  std::vector<uint32_t> delivered_seqs;
  ImpairProxy::Stats impair;
};

SweepResult run_impaired_transfer(uint64_t seed, double loss, double dup,
                                  double delay, int count) {
  SocketFabric fa(0, 2), fb(1, 2);
  std::vector<Endpoint> real{fa.local_endpoint(), fb.local_endpoint()};
  ImpairConfig ic;
  ic.seed = seed;
  ic.loss = loss;
  ic.dup = dup;
  ic.delay = delay;
  ic.delay_s = 0.001;
  ImpairProxy proxy(real, ic);
  fa.set_peers(proxy.proxied());
  fb.set_peers(proxy.proxied());

  ReliableConfig cfg;
  cfg.rto_initial_s = 0.002;
  cfg.rto_max_s = 0.032;
  ReliableEndpoint tx(&fa, 0, cfg);
  ReliableEndpoint rx(&fb, 1, cfg);

  SweepResult res;
  std::atomic<bool> done{false};
  std::thread rx_thread([&] {
    Message m;
    while (int(res.delivered_seqs.size()) < count && !done.load()) {
      if (rx.recv(&m, 0.02) == ReliableEndpoint::Status::kMessage)
        res.delivered_seqs.push_back(m.seq);
    }
    while (!done.load()) rx.recv(&m, 0.01);  // t-ack the sender's tail
  });

  for (uint32_t i = 0; i < uint32_t(count); ++i) {
    Message m = make_msg(0, 1, i, 400 + (i % 7) * 100);
    m.seq = i;  // the reliable layer overwrites tseq, not seq
    tx.send(1, std::move(m));
    Message got;
    tx.recv(&got, 0.001);
  }
  // Drive retransmissions until everything is acked (or a bounded deadline
  // passes — the assertions below catch a stall).
  for (int i = 0; i < 4000 && tx.unacked() > 0; ++i) {
    Message got;
    tx.recv(&got, 0.005);
  }
  done.store(true);
  rx_thread.join();
  proxy.stop();
  res.tx_stats = tx.stats();
  res.rx_stats = rx.stats();
  res.impair = proxy.stats();
  return res;
}

TEST(SocketReliable, SurvivesSeededLossDupDelaySweep) {
  int sweep_index = 0;
  for (const double loss : {0.02, 0.05, 0.10}) {
    SCOPED_TRACE(loss);
    const int count = 200;
    const SweepResult res = run_impaired_transfer(
        /*seed=*/uint64_t(1000 + sweep_index++), loss, /*dup=*/0.05,
        /*delay=*/0.10, count);

    // Exactly-once, in-order: the application saw every seq exactly once,
    // ascending, no matter what the wire did.
    ASSERT_EQ(res.delivered_seqs.size(), size_t(count));
    for (int i = 0; i < count; ++i)
      ASSERT_EQ(res.delivered_seqs[size_t(i)], uint32_t(i));

    // Wire-level damage really happened (the proxy is not a no-op)...
    EXPECT_GT(res.impair.dropped + res.impair.duplicated + res.impair.delayed,
              0u);
    // ...and the reliable layer paid for it with retransmissions, never
    // with abandonment at these rates.
    EXPECT_GT(res.tx_stats.retransmits, 0u);
    EXPECT_EQ(res.tx_stats.abandoned, 0u);

    // Stats consistency: sends dominate retransmits + abandonments, and the
    // receiver delivered exactly what the application got.
    EXPECT_GE(res.tx_stats.sent,
              res.tx_stats.retransmits + res.tx_stats.abandoned);
    EXPECT_EQ(res.rx_stats.delivered, uint64_t(count));
  }
}

TEST(ImpairProxy, ScheduleIsDeterministicForAFixedSeed) {
  auto run = [](uint64_t seed) {
    SocketFabric fa(0, 2), fb(1, 2);
    std::vector<Endpoint> real{fa.local_endpoint(), fb.local_endpoint()};
    ImpairConfig ic;
    ic.seed = seed;
    ic.loss = 0.25;
    ImpairProxy proxy(real, ic);
    fa.set_peers(proxy.proxied());
    fb.set_peers(proxy.proxied());
    std::vector<uint32_t> got;
    for (uint32_t i = 0; i < 40; ++i) fa.send(0, 1, make_msg(0, 1, i, 64));
    Message m;
    while (fb.receive_for(1, 0.1, &m) == RecvStatus::kOk) got.push_back(m.seq);
    proxy.stop();
    return got;
  };
  const std::vector<uint32_t> a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b);          // same seed, same survivors
  EXPECT_NE(a.size(), 40u);  // at 25% loss some datagrams really died
  (void)c;  // a different seed need not differ, but usually does
}

}  // namespace
}  // namespace pdw::net
