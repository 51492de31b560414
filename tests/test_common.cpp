// Common utility tests: CHECK macros, byte serialization, running stats,
// text tables, RNG determinism.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/check.h"
#include "common/stats.h"
#include "common/text_table.h"
#include "common/timing.h"

namespace pdw {
namespace {

TEST(Check, PassingConditionIsSilent) {
  PDW_CHECK(1 + 1 == 2);
  PDW_CHECK_EQ(3, 3) << "never evaluated";
}

TEST(Check, FailureThrowsWithContext) {
  try {
    PDW_CHECK_EQ(2, 3) << "custom context " << 42;
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("custom context 42"), std::string::npos);
    EXPECT_NE(msg.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Check, ComparisonVariants) {
  EXPECT_THROW(PDW_CHECK_LT(5, 5), CheckError);
  EXPECT_THROW(PDW_CHECK_GT(5, 5), CheckError);
  EXPECT_THROW(PDW_CHECK_NE(5, 5), CheckError);
  PDW_CHECK_LE(5, 5);
  PDW_CHECK_GE(5, 5);
}

TEST(Bytes, RoundtripAllTypes) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i16(-12345);
  w.i32(-7654321);
  const uint8_t blob[3] = {1, 2, 3};
  w.bytes(blob);

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i16(), -12345);
  EXPECT_EQ(r.i32(), -7654321);
  auto got = r.bytes(3);
  EXPECT_EQ(got[2], 3);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, WriterIsLittleEndianInBothModes) {
  const std::vector<uint8_t> want = {0x34, 0x12, 0xEF, 0xBE, 0xAD, 0xDE,
                                     0xFE, 0xFF};
  std::vector<uint8_t> grown;
  uint8_t fixed[8] = {};
  ByteWriter g(&grown), f(fixed, sizeof(fixed));
  for (ByteWriter* w : {&g, &f}) {
    w->u16(0x1234);
    w->u32(0xDEADBEEF);
    w->i16(-2);
  }
  EXPECT_EQ(grown, want);
  EXPECT_EQ(std::vector<uint8_t>(fixed, fixed + 8), want);
  EXPECT_THROW(f.u8(0), CheckError);  // the fixed buffer is full
}

TEST(Bytes, ReaderOverrunLatchesFailure) {
  std::vector<uint8_t> buf = {1, 2, 3};
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0x0201);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u16(), 0);  // one byte left: overrun
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.u8(), 0);  // latched: even a read that would have fit fails
  EXPECT_TRUE(r.bytes(0).empty());
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
}

TEST(RunningStat, WelfordMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(SplitMix, DeterministicAndUniform) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(7);
  int buckets[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++buckets[c.next_below(4)];
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(buckets[i], 1000, 150);
  SplitMix64 d(9);
  for (int i = 0; i < 100; ++i) {
    const double v = d.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(HumanBytes, Units) {
  EXPECT_EQ(human_bytes(512), "512.00 B");
  EXPECT_EQ(human_bytes(2048), "2.00 KB");
  EXPECT_EQ(human_bytes(3.5 * 1024 * 1024), "3.50 MB");
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
  t.add_row({"x", "y"});
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Format, PrintfSemantics) {
  EXPECT_EQ(format("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_LT(t.seconds(), 5.0);
}

TEST(ScopedAccumulator, AddsOnDestruction) {
  double total = 0;
  {
    ScopedAccumulator acc(total);
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace pdw
