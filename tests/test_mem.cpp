// Refcounted pooled buffer tests (mem::Bytes, BufferPool, SurfacePool),
// ending with the PR's acceptance gate: a warmed-up threaded 2x2 wall run
// performs zero hot-path pool misses (= hot-path mallocs) per picture.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/stats.h"
#include "core/pipeline.h"
#include "enc/encoder.h"
#include "mem/pool.h"
#include "obs/metrics.h"
#include "video/generator.h"

namespace pdw::mem {
namespace {

// --- Bytes handle semantics ------------------------------------------------

TEST(Bytes, RefcountLifecycle) {
  Bytes a = Bytes::filled(100, 0x42);
  EXPECT_TRUE(a.owning());
  EXPECT_TRUE(a.unique());
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a[57], 0x42);

  Bytes b = a;  // copy = ref bump, same storage
  EXPECT_FALSE(a.unique());
  EXPECT_EQ(a.data(), b.data());

  Bytes c = std::move(b);  // move steals the ref
  EXPECT_EQ(c.data(), a.data());
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): reset to empty

  c.reset();
  EXPECT_TRUE(a.unique());  // last remaining handle
  EXPECT_EQ(a[0], 0x42);    // storage stayed alive throughout
}

TEST(Bytes, ViewsShareTheBlockAndPinIt) {
  Bytes whole = Bytes::copy_of({{1, 2, 3, 4, 5, 6, 7, 8}});
  Bytes mid = whole.view(2, 4);
  EXPECT_EQ(mid.size(), 4u);
  EXPECT_EQ(mid[0], 3);
  EXPECT_EQ(mid.data(), whole.data() + 2);
  whole.reset();
  // The view keeps the underlying block alive.
  EXPECT_EQ(mid[3], 6);
}

TEST(Bytes, MakeUniqueCopiesOnlyWhenShared) {
  Bytes a = Bytes::filled(64, 1);
  const uint8_t* p = a.data();
  a.make_unique();  // sole owner of the full block: no-op
  EXPECT_EQ(a.data(), p);

  Bytes b = a;
  b.make_unique();  // shared: must detach
  EXPECT_NE(b.data(), a.data());
  b.mutable_data()[0] = 9;
  EXPECT_EQ(a[0], 1);  // the original is untouched
}

TEST(Bytes, BorrowDoesNotOwn) {
  const std::vector<uint8_t> backing(32, 7);
  Bytes b = Bytes::borrow(backing);
  EXPECT_FALSE(b.owning());
  EXPECT_EQ(b.data(), backing.data());
  EXPECT_EQ(b, Bytes::filled(32, 7));  // content equality, not identity
}

// --- BufferPool: size-class freelists --------------------------------------

TEST(BufferPool, RecyclesBySizeClass) {
  BufferPool pool;
  const uint8_t* first;
  {
    Bytes a = pool.alloc(1000);  // class for 1000 -> 1024
    first = a.data();
  }
  Bytes b = pool.alloc(900);  // same class: must reuse the freed block
  EXPECT_EQ(b.data(), first);
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.recycles, 1u);
}

TEST(BufferPool, ClassForRoundsToPowersOfTwo) {
  EXPECT_EQ(BufferPool::class_for(1), 0);
  EXPECT_EQ(BufferPool::class_for(64), 0);
  EXPECT_EQ(BufferPool::class_for(65), 1);
  EXPECT_EQ(BufferPool::class_for(1024), 4);
  EXPECT_EQ(BufferPool::class_for(BufferPool::kMaxClassBytes), 16);
  EXPECT_EQ(BufferPool::class_for(BufferPool::kMaxClassBytes + 1), -1);
}

TEST(BufferPool, OversizedRequestsFallBackToHeap) {
  BufferPool pool;
  Bytes big = pool.alloc(BufferPool::kMaxClassBytes + 1);
  EXPECT_EQ(big.size(), BufferPool::kMaxClassBytes + 1);
  big.mutable_data()[BufferPool::kMaxClassBytes] = 0xEE;  // usable end to end
  big.reset();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.recycles, 0u);  // heap blocks are freed, not recycled
}

TEST(BufferPool, BudgetExhaustionDegradesToHeap) {
  // Budget of one 64-byte block: the second concurrent allocation must fall
  // back to the heap but still work.
  BufferPool pool(/*max_pool_bytes=*/64);
  Bytes a = pool.alloc(64);
  Bytes b = pool.alloc(64);
  std::memset(b.mutable_data(), 0x5A, b.size());
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_LE(pool.stats().pooled_bytes, 64u);
  a.reset();
  b.reset();  // heap fallback block: freed silently
  Bytes c = pool.alloc(64);  // the pooled block is back on the freelist
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPool, BudgetFallbacksDistinguishBudgetExhaustion) {
  // A fully minted budget alone is not overload: a pool can sit at its
  // budget and be healthy. Only budget_fallbacks growing means demand
  // exceeds the budget.
  BufferPool pool(/*max_pool_bytes=*/256);
  EXPECT_EQ(pool.stats().pooled_bytes, 0u);
  EXPECT_EQ(pool.stats().budget_fallbacks, 0u);

  Bytes a = pool.alloc(128);
  Bytes b = pool.alloc(128);  // budget fully minted, nothing degraded yet
  EXPECT_EQ(pool.stats().pooled_bytes, 256u);
  EXPECT_EQ(pool.stats().budget_fallbacks, 0u);

  Bytes c = pool.alloc(128);  // third concurrent block: heap fallback
  EXPECT_EQ(pool.stats().budget_fallbacks, 1u);
  EXPECT_EQ(c.size(), 128u);  // degraded, not failed
  EXPECT_EQ(pool.stats().pooled_bytes, 256u);

  a.reset();
  b.reset();
  c.reset();
  Bytes d = pool.alloc(128);  // recycle, not a fallback
  EXPECT_EQ(pool.stats().budget_fallbacks, 1u);
}

// Budget-edge test shape: kEdgeThreads concurrent streams, each holding a
// window of kEdgeWindow buffers.
constexpr int kEdgeThreads = 4;
constexpr int kEdgeWindow = 4;

// Request sizes and budget for the budget-edge test, per pool type. The
// surface pool is geometry-keyed, so it sees one plane size; the wire pool
// sees every message size from a control message to a large sub-picture.
template <typename Pool>
struct BudgetEdge;

template <>
struct BudgetEdge<SurfacePool> {
  static constexpr size_t kMaxBytes = 64 * 1024;  // one "plane" per picture
  // Room for the windows of all but one stream.
  static constexpr size_t kBudget =
      kMaxBytes * kEdgeWindow * (kEdgeThreads - 1);
  static size_t size(SplitMix64&) { return kMaxBytes; }
};

template <>
struct BudgetEdge<BufferPool> {
  static constexpr size_t kMaxBytes = 256 * 1024;
  static constexpr size_t kBudget = size_t(1) << 20;
  static size_t size(SplitMix64& rng) {
    return 64 + rng.next_below(uint32_t(kMaxBytes - 64 + 1));
  }
};

template <typename Pool>
class PoolBudgetEdge : public ::testing::Test {};
using PoolTypes = ::testing::Types<SurfacePool, BufferPool>;
TYPED_TEST_SUITE(PoolBudgetEdge, PoolTypes);

TYPED_TEST(PoolBudgetEdge, UnderConcurrentStreams) {
  // The production pools run 256-512 MiB budgets; this is the same scenario
  // scaled for CI: concurrent streams holding windows of buffers against a
  // squeezed budget. At the budget edge allocation must degrade to heap
  // fallbacks (never fail, never corrupt), and every byte must come back
  // when the streams detach.
  using Edge = BudgetEdge<TypeParam>;
  constexpr int kChurn = 2000;  // allocations per stream after the squeeze
  TypeParam pool(Edge::kBudget);

  std::atomic<bool> failed{false};
  std::barrier sync(kEdgeThreads);
  std::vector<std::thread> streams;
  for (int s = 0; s < kEdgeThreads; ++s) {
    streams.emplace_back([&, s] {
      SplitMix64 rng(uint64_t(s) + 1);
      const auto alloc = [&](uint8_t tag) {
        const size_t n = Edge::size(rng);
        Bytes b = pool.alloc(n);
        if (b.size() != n) failed.store(true);
        b.mutable_data()[0] = uint8_t(s);
        b.mutable_data()[n - 1] = tag;
        return b;
      };
      std::vector<Bytes> window;
      for (int i = 0; i < kEdgeWindow; ++i) window.push_back(alloc(uint8_t(i)));
      // All streams hold their full window at once: the held bytes exceed
      // the budget whatever the thread schedule.
      sync.arrive_and_wait();
      window.clear();
      // Post-squeeze churn through a rolling window: the minted blocks
      // recycle for everyone, the overflow keeps degrading.
      for (int i = 0; i < kChurn; ++i) {
        window.push_back(alloc(uint8_t(i)));
        if (window.size() > size_t(kEdgeWindow)) window.erase(window.begin());
      }
    });
  }
  for (std::thread& t : streams) t.join();

  EXPECT_FALSE(failed.load());
  const PoolStats st = pool.stats();
  EXPECT_GT(st.budget_fallbacks, 0u);  // demand exceeded the budget
  EXPECT_EQ(st.bytes_in_flight, 0);    // everything drained
  EXPECT_LE(st.pooled_bytes, Edge::kBudget);
  // One plane geometry divides the surface budget: it is minted in full.
  if constexpr (std::is_same_v<TypeParam, SurfacePool>) {
    EXPECT_EQ(st.pooled_bytes, Edge::kBudget);
  }
}

TEST(BufferPool, CrossThreadFreeThenAlloc) {
  // Blocks allocated here, released on other threads, must land back on a
  // freelist this thread (or a sibling) can steal from — and the whole dance
  // must be race-free (TSan covers the interleavings).
  BufferPool pool;
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool] {
      for (int i = 0; i < kRounds; ++i) {
        Bytes b = pool.alloc(512);
        b.mutable_data()[0] = uint8_t(i);
        Bytes v = b.view(0, 256);
        b.reset();
        EXPECT_EQ(v[0], uint8_t(i));  // the view still pins the block
      }
    });
  }
  for (auto& w : workers) w.join();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.bytes_in_flight, 0);
  EXPECT_EQ(s.hits + s.misses, uint64_t(kThreads) * kRounds);
  // Reuse must dominate: at worst each thread minted a handful of blocks.
  EXPECT_LE(s.misses, uint64_t(kThreads) * BufferPool::kShards);
}

TEST(BufferPool, PoolOutlivedByBlocksIsSafe) {
  Bytes survivor;
  {
    BufferPool pool;
    survivor = pool.alloc(128);
    std::memset(survivor.mutable_data(), 3, survivor.size());
  }
  // The pool handle is gone; the block degrades to a heap free on release.
  EXPECT_EQ(survivor[127], 3);
  survivor.reset();
}

// --- SurfacePool: geometry-keyed reuse -------------------------------------

TEST(SurfacePool, ReusesExactGeometryOnly) {
  SurfacePool pool;
  const uint8_t* luma;
  {
    Bytes a = pool.alloc(1920 * 1080);
    luma = a.data();
  }
  Bytes b = pool.alloc(1920 * 1080);  // same geometry: recycled block
  EXPECT_EQ(b.data(), luma);
  Bytes c = pool.alloc(960 * 540);  // different geometry: fresh block
  EXPECT_NE(c.data(), luma);
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
}

// --- Runtime pooling switch -------------------------------------------------

TEST(Pooling, DisabledMeansEveryAllocIsAMiss) {
  set_pooling_enabled(false);
  BufferPool pool;
  { Bytes a = pool.alloc(256); }
  { Bytes b = pool.alloc(256); }  // would be a hit with pooling on
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().hits, 0u);
  set_pooling_enabled(true);
  { Bytes c = pool.alloc(256); }
  { Bytes d = pool.alloc(256); }
  EXPECT_EQ(pool.stats().hits, 1u);
}

// --- Acceptance gate: zero hot-path mallocs per picture at steady state ----

TEST(SteadyState, ZeroPoolMissesPerPictureOnWarm2x2Wall) {
  // Encode a short stream once, then run the full threaded 2x2 pipeline
  // twice. The first run warms the process-wide pools; the second must be
  // served entirely from freelists: miss-delta == 0 across all its pictures.
  // (Misses correspond 1:1 to hot-path mallocs; STL node allocations in
  // cold control structures are out of scope by design — see mem/pool.h.)
  constexpr int kW = 192, kH = 128, kFrames = 8;
  enc::EncoderConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.gop_size = 4;
  cfg.b_frames = 1;
  cfg.target_bpp = 0.4;
  const auto gen =
      video::make_scene(video::SceneKind::kMovingObjects, kW, kH, 7);
  enc::Mpeg2Encoder encoder(cfg);
  const std::vector<uint8_t> es =
      encoder.encode(kFrames, [&](int i, mpeg2::Frame* f) { gen->render(i, f); });

  const wall::TileGeometry geo(kW, kH, 2, 2, /*overlap=*/16);
  const auto run_once = [&] {
    core::ClusterPipeline pipeline(geo, /*k=*/1, es);
    const core::ClusterStats st = pipeline.run(nullptr);
    EXPECT_EQ(st.pictures, kFrames);
  };

  run_once();  // warm-up: pools mint their working set here
  const uint64_t wire_misses0 = BufferPool::wire().stats().misses;
  const uint64_t surf_misses0 = SurfacePool::global().stats().misses;
  run_once();  // steady state
  EXPECT_EQ(BufferPool::wire().stats().misses - wire_misses0, 0u)
      << "wire-pool mallocs on the hot path after warm-up";
  EXPECT_EQ(SurfacePool::global().stats().misses - surf_misses0, 0u)
      << "surface-pool mallocs on the hot path after warm-up";

  // The same numbers must be visible through the obs registry (that is what
  // scripts/run_benches.sh and wall_top read).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  EXPECT_EQ(reg.counter(obs::family::kPoolMisses).value(),
            BufferPool::wire().stats().misses);
  EXPECT_EQ(reg.counter(obs::family::kSurfacePoolMisses).value(),
            SurfacePool::global().stats().misses);
  EXPECT_GT(reg.counter(obs::family::kPoolHits).value(), 0u);
}

}  // namespace
}  // namespace pdw::mem
