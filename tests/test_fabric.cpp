// GM-like fabric tests: posted-receive credits, accounting, shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <thread>

#include "net/fabric.h"
#include "net/reliable.h"

namespace pdw::net {
namespace {

Message bulk_msg(int type, mem::Bytes payload) {
  Message m;
  m.type = type;
  m.bulk = true;
  m.payload = std::move(payload);
  return m;
}

TEST(Fabric, DeliversInFifoOrder) {
  Fabric f(2);
  f.post_receive(1);
  f.post_receive(1);
  f.send(0, 1, bulk_msg(1, {1, 2, 3}));
  f.send(0, 1, bulk_msg(2, {}));
  Message m;
  ASSERT_TRUE(f.receive(1, &m));
  EXPECT_EQ(m.type, 1);
  EXPECT_EQ(m.src, 0);
  EXPECT_EQ(m.payload.size(), 3u);
  ASSERT_TRUE(f.receive(1, &m));
  EXPECT_EQ(m.type, 2);
}

TEST(Fabric, BulkWithoutCreditReportsNoCredit) {
  // A flow-control overrun is no longer a hard abort: the reliable transport
  // needs to see it and back off, so it surfaces as a typed status.
  Fabric f(2);
  EXPECT_EQ(f.send(0, 1, bulk_msg(1, {})), SendStatus::kNoCredit);
  // Nothing was delivered.
  Message m;
  EXPECT_EQ(f.receive_for(1, 0.0, &m), RecvStatus::kTimeout);
}

TEST(Fabric, NonBulkNeedsNoCredit) {
  Fabric f(2);
  Message m;
  m.type = 7;
  f.send(0, 1, std::move(m));
  Message got;
  ASSERT_TRUE(f.receive(1, &got));
  EXPECT_EQ(got.type, 7);
}

TEST(Fabric, TwoBufferFlowControl) {
  // The paper's scheme: two posted buffers; a third bulk send without a
  // recycle must fail, and recycling re-enables it.
  Fabric f(2);
  f.post_receive(1);
  f.post_receive(1);
  EXPECT_EQ(f.send(0, 1, bulk_msg(1, {})), SendStatus::kOk);
  EXPECT_EQ(f.send(0, 1, bulk_msg(2, {})), SendStatus::kOk);
  EXPECT_EQ(f.send(0, 1, bulk_msg(3, {})), SendStatus::kNoCredit);
  Message m;
  ASSERT_TRUE(f.receive(1, &m));
  f.post_receive(1);  // recycle
  EXPECT_EQ(f.send(0, 1, bulk_msg(3, {})), SendStatus::kOk);
}

TEST(Fabric, CountersTrackBothDirections) {
  Fabric f(3);
  f.post_receive(2);
  f.send(1, 2, bulk_msg(1, mem::Bytes::filled(100, 0)));
  const NodeCounters sender = f.counters(1);
  const NodeCounters receiver = f.counters(2);
  EXPECT_EQ(sender.sent_bytes, 100 + Message::kHeaderBytes);
  EXPECT_EQ(sender.sent_messages, 1u);
  EXPECT_EQ(sender.recv_bytes, 0u);
  EXPECT_EQ(receiver.recv_bytes, 100 + Message::kHeaderBytes);
  EXPECT_EQ(receiver.recv_messages, 1u);
}

TEST(Fabric, TrafficMatrix) {
  Fabric f(3);
  Message m;
  m.payload = mem::Bytes::filled(84, 0);  // 100 bytes on the wire
  f.send(0, 2, std::move(m));
  const auto traffic = f.traffic_matrix();
  EXPECT_EQ(traffic.at(0, 2), 100u);
  EXPECT_EQ(traffic.at(2, 0), 0u);
}

TEST(Fabric, ConservationOfBytes) {
  Fabric f(4);
  for (int i = 0; i < 20; ++i) {
    Message m;
    m.payload = mem::Bytes::filled(size_t(i * 13 % 50), 0);
    f.send(i % 4, (i + 1) % 4, std::move(m));
  }
  uint64_t sent = 0, recv = 0;
  for (int n = 0; n < 4; ++n) {
    sent += f.counters(n).sent_bytes;
    recv += f.counters(n).recv_bytes;
  }
  EXPECT_EQ(sent, recv);
}

TEST(Fabric, BlockingReceiveWakesOnSend) {
  Fabric f(2);
  Message got;
  std::thread receiver([&] { ASSERT_TRUE(f.receive(1, &got)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Message m;
  m.type = 9;
  f.send(0, 1, std::move(m));
  receiver.join();
  EXPECT_EQ(got.type, 9);
}

TEST(Fabric, ShutdownUnblocksReceivers) {
  Fabric f(2);
  bool result = true;
  std::thread receiver([&] {
    Message m;
    result = f.receive(1, &m);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  f.shutdown();
  receiver.join();
  EXPECT_FALSE(result);
}

TEST(Fabric, TimedReceiveTimesOutAndStillDelivers) {
  Fabric f(2);
  Message m;
  EXPECT_EQ(f.receive_for(1, 0.005, &m), RecvStatus::kTimeout);
  Message s;
  s.type = 4;
  f.send(0, 1, std::move(s));
  EXPECT_EQ(f.receive_for(1, 0.005, &m), RecvStatus::kOk);
  EXPECT_EQ(m.type, 4);
}

TEST(Fabric, KilledNodeLosesQueueAndGoesSilent) {
  Fabric f(3);
  Message s;
  s.type = 1;
  f.send(0, 1, std::move(s));
  f.kill(1);
  EXPECT_TRUE(f.is_dead(1));
  // Receives at the corpse report kDead, even though a message was queued.
  Message m;
  EXPECT_EQ(f.receive_for(1, 0.0, &m), RecvStatus::kDead);
  EXPECT_FALSE(f.receive(1, &m));
  // Sends to it vanish silently — the network does not tell the sender.
  Message s2;
  s2.type = 2;
  EXPECT_EQ(f.send(0, 1, std::move(s2)), SendStatus::kOk);
  // Sends *from* it are refused: a dead node cannot transmit.
  Message s3;
  s3.type = 3;
  EXPECT_EQ(f.send(1, 2, std::move(s3)), SendStatus::kSrcDead);
  f.kill(1);  // idempotent
}

TEST(Fabric, InjectedDropIsCountedAndInvisibleToSender) {
  FaultInjector inj;
  inj.add_event(
      {.kind = FaultEvent::Kind::kDrop, .src = 0, .dst = 1, .at_ordinal = 0});
  Fabric f(2);
  f.set_fault_injector(&inj);
  Message a;
  a.type = 1;
  EXPECT_EQ(f.send(0, 1, std::move(a)), SendStatus::kOk);  // dropped silently
  Message b;
  b.type = 2;
  EXPECT_EQ(f.send(0, 1, std::move(b)), SendStatus::kOk);
  Message m;
  ASSERT_EQ(f.receive_for(1, 0.05, &m), RecvStatus::kOk);
  EXPECT_EQ(m.type, 2);  // only the second message arrived
  EXPECT_EQ(f.counters(1).dropped_messages, 1u);
  EXPECT_EQ(f.receive_for(1, 0.0, &m), RecvStatus::kTimeout);
}

TEST(Fabric, DelayedMessageReleasedByTimeout) {
  FaultInjector inj;
  inj.add_event({.kind = FaultEvent::Kind::kDelay,
                 .src = 0,
                 .dst = 1,
                 .at_ordinal = 0,
                 .param = 100});  // hold ~forever
  Fabric f(2);
  f.set_fault_injector(&inj);
  Message a;
  a.type = 1;
  f.send(0, 1, std::move(a));
  Message m;
  // A blocked receiver's timeout force-releases the parked message — it
  // arrives "late" instead of never, which keeps the fabric live.
  ASSERT_EQ(f.receive_for(1, 0.002, &m), RecvStatus::kOk);
  EXPECT_EQ(m.type, 1);
}

TEST(FaultInjector, DecisionsAreDeterministic) {
  const FaultRates rates{.drop = 0.3, .dup = 0.2, .corrupt = 0.2, .delay = 0.2};
  FaultInjector a(1234, rates), b(1234, rates), c(99, rates);
  int diff_from_c = 0;
  for (uint64_t ord = 0; ord < 200; ++ord) {
    const auto da = a.decide(0, 1, ord, ord, 64);
    const auto db = b.decide(0, 1, ord, ord, 64);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.dup, db.dup);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_EQ(da.delay_hold, db.delay_hold);
    const auto dc = c.decide(0, 1, ord, ord, 64);
    diff_from_c += (da.drop != dc.drop) || (da.dup != dc.dup);
  }
  EXPECT_GT(diff_from_c, 0);  // a different seed gives a different schedule
}

TEST(FaultInjector, CorruptPayloadChangesBytesDeterministically) {
  FaultInjector inj(7, FaultRates{.corrupt_bytes = 4});
  std::vector<uint8_t> p1(64, 0xAB), p2(64, 0xAB);
  inj.corrupt_payload(0, 1, 5, p1);
  inj.corrupt_payload(0, 1, 5, p2);
  EXPECT_NE(p1, std::vector<uint8_t>(64, 0xAB));  // actually flipped bytes
  EXPECT_EQ(p1, p2);                              // identically per replay
}

TEST(Crc32, DetectsCorruption) {
  std::vector<uint8_t> data(256);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 31);
  const uint32_t good = crc32(data);
  EXPECT_EQ(crc32(data), good);  // stable
  data[100] ^= 0x40;
  EXPECT_NE(crc32(data), good);  // single-bit flip detected
  // Known-answer check: CRC-32 of "123456789" is 0xCBF43926.
  const uint8_t kCheck[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(kCheck), 0xCBF43926u);
}

// CRC-32 (IEEE, reflected) straight from its definition, a byte at a time
// and a bit at a time: the reference the sliced implementation must equal.
uint32_t crc32_bytewise(std::span<const uint8_t> data) {
  uint32_t c = 0xFFFFFFFFu;
  for (const uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBytewiseDefinitionAtEveryLengthAndAlignment) {
  uint32_t x = 0x12345678u;
  const auto random_bytes = [&](size_t n) {
    std::vector<uint8_t> v(n);
    for (uint8_t& b : v) b = uint8_t((x = x * 1664525u + 1013904223u) >> 24);
    return v;
  };
  const std::vector<uint8_t> buf = random_bytes(8 + 300);
  for (size_t off = 0; off < 8; ++off)
    for (size_t len = 0; len <= 300; ++len) {
      const std::span<const uint8_t> s(buf.data() + off, len);
      ASSERT_EQ(crc32(s), crc32_bytewise(s)) << "offset " << off << " length "
                                             << len;
    }
  // One 90 KiB body, about a 1080p half-wall sub-picture.
  const std::vector<uint8_t> body = random_bytes(90 * 1024);
  EXPECT_EQ(crc32(body), crc32_bytewise(body));
}

TEST(Reliable, AbandonedHoleIsSkippedAfterTimeout) {
  // An abandoned send leaves a hole in the tseq space; in-order delivery
  // must not wait on it forever. Drop every transmission of message A
  // (link ordinals 0 and 2 — B's initial send takes ordinal 1) so the
  // sender abandons it, then check the receiver eventually concedes the
  // hole and delivers B.
  FaultInjector inj;
  inj.add_event(
      {.kind = FaultEvent::Kind::kDrop, .src = 0, .dst = 1, .at_ordinal = 0});
  inj.add_event(
      {.kind = FaultEvent::Kind::kDrop, .src = 0, .dst = 1, .at_ordinal = 2});
  Fabric f(2);
  f.set_fault_injector(&inj);
  ReliableConfig cfg;
  cfg.rto_initial_s = 0.002;
  cfg.rto_max_s = 0.004;
  cfg.max_retries = 1;  // A: initial + one retry, both dropped -> abandoned
  cfg.hole_timeout_s = 0.05;
  ReliableEndpoint tx(&f, 0, cfg);
  ReliableEndpoint rx(&f, 1, cfg);

  Message a;
  a.type = 1;
  tx.send(1, std::move(a));
  Message b;
  b.type = 2;
  tx.send(1, std::move(b));

  Message got;
  bool delivered = false;
  for (int i = 0; i < 400 && !delivered; ++i) {
    Message m;
    tx.recv(&m, 0.002);  // drives retransmit deadlines and eats t-acks
    delivered = rx.recv(&got, 0.002) == ReliableEndpoint::Status::kMessage;
  }
  ASSERT_TRUE(delivered);
  EXPECT_EQ(got.type, 2);
  EXPECT_EQ(rx.stats().holes, 1u);
  EXPECT_EQ(tx.stats().abandoned, 1u);
  const auto abandoned = tx.take_abandoned();
  ASSERT_EQ(abandoned.size(), 1u);
  EXPECT_EQ(abandoned[0].type, 1);
  EXPECT_EQ(abandoned[0].dst, 1);
}

TEST(Fabric, WakeInterruptsABlockedReceiveOnce) {
  Fabric f(2);
  RecvStatus st = RecvStatus::kOk;
  std::thread th([&] {
    Message m;
    st = f.receive_for(1, 5.0, &m);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  f.wake(1);
  th.join();
  EXPECT_EQ(st, RecvStatus::kWoken);
  // The wake was consumed: the next receive times out normally.
  Message m;
  EXPECT_EQ(f.receive_for(1, 0.0, &m), RecvStatus::kTimeout);
  // A wake before the receive is not lost.
  f.wake(1);
  EXPECT_EQ(f.receive_for(1, 5.0, &m), RecvStatus::kWoken);
}

TEST(Reliable, WakeEndsARecvEarlyAsATimeout) {
  Fabric f(2);
  ReliableEndpoint ep(&f, 1);
  f.wake(1);
  Message m;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ep.recv(&m, 5.0), ReliableEndpoint::Status::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

TEST(Fabric, WaitQuiescentEndsWhenTheReceiverDrains) {
  Fabric f(2);
  Message m;
  m.type = 3;
  f.send(0, 1, m);
  EXPECT_FALSE(f.quiescent());
  EXPECT_FALSE(f.wait_quiescent(0.0));
  std::thread th([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Message got;
    f.receive_for(1, 1.0, &got);
  });
  EXPECT_TRUE(f.wait_quiescent(5.0));
  th.join();
  EXPECT_TRUE(f.quiescent());
}

}  // namespace
}  // namespace pdw::net
