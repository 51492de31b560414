// Arena-backed buffer pools behind mem::Bytes.
//
// Two pools cover the two allocation populations of the decode hot path:
//
//  * BufferPool — wire payloads (coded pictures, serialized sub-pictures,
//    exchange bodies, control messages). Sizes vary per message, so blocks
//    live in power-of-two size classes (64 B .. 4 MiB). Freelists are
//    sharded by thread (thread-affine free caches): a thread allocates from
//    and frees to its own shard under an uncontended mutex, and steals from
//    sibling shards before minting a new block — so pipeline threads reuse
//    their own recent blocks (cache-warm) without any thread-local lifetime
//    hazards when threads die between runs.
//
//  * SurfacePool — picture planes. A wall run allocates the same plane
//    geometries every picture, so blocks are keyed by *exact* byte size and
//    reused only for identical geometry (no size-class rounding waste on
//    multi-megabyte luma planes).
//
// Every allocation that could not be served from a freelist is a *miss* and
// corresponds 1:1 to a hot-path malloc; the acceptance gate "zero hot-path
// allocations per picture after warm-up" is checked as miss-delta == 0
// across a steady-state run (tests/test_mem.cpp, scripts/run_benches.sh).
// The process-wide pools mirror their stats into obs::MetricsRegistry
// (family::kPoolHits etc.) so benches, wall_top and CI read one source.
//
// Exhaustion: each pool has a byte budget. Once minted pooled bytes reach
// it, further allocations fall back to plain heap blocks that are freed on
// release instead of recycled (still counted as misses) — the pool degrades
// to malloc/free rather than failing.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "mem/bytes.h"

namespace pdw::obs {
class MetricsRegistry;
}

namespace pdw::mem {

// Point-in-time pool statistics (local atomics, independent of obs).
struct PoolStats {
  uint64_t hits = 0;      // served from a freelist
  uint64_t misses = 0;    // required a heap malloc (hot-path allocation)
  uint64_t recycles = 0;  // blocks returned to a freelist
  uint64_t steals = 0;    // hits served from a sibling thread's shard
  int64_t bytes_in_flight = 0;  // capacity currently handed out
  uint64_t pooled_bytes = 0;    // capacity minted under the pool budget
  // Allocations that degraded to a plain heap block *because the byte
  // budget was spent* (a subset of misses, told apart from cold-start
  // misses). `pooled_bytes` at the budget alone is not overload — a pool
  // can run fully minted and healthy, every block recycling through the
  // freelists. It is this count growing that means current demand exceeds
  // what the budget can cover.
  uint64_t budget_fallbacks = 0;
};

// Names of the obs counter/gauge families a pool mirrors into. Null family
// pointers (default) disable mirroring — unit-test pools stay silent.
struct PoolObsFamilies {
  const char* hits = nullptr;
  const char* misses = nullptr;
  const char* recycles = nullptr;
  const char* bytes_in_flight = nullptr;
  const char* budget_fallbacks = nullptr;
};

// --- Size-class pool for wire payloads -------------------------------------
class BufferPool {
 public:
  static constexpr size_t kMinClassBytes = 64;        // class 0
  static constexpr size_t kMaxClassBytes = 4u << 20;  // class 16
  static constexpr int kClasses = 17;
  static constexpr int kShards = 8;

  explicit BufferPool(size_t max_pool_bytes = size_t(256) << 20,
                      PoolObsFamilies obs_families = {});
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Pooled buffer of at least n bytes (Bytes::size() == n), uninitialized.
  Bytes alloc(size_t n);

  // Mint up to `count` blocks for every size class up to the one covering
  // `max_bytes` and put them on the freelists. The analog of posting
  // receive buffers up front in GM: with the working set minted at setup,
  // the steady state is served entirely from freelists even when thread
  // scheduling shifts the peak concurrent demand between runs. Large
  // (picture-sized) classes are capped by bytes per class — they only
  // ever hold a dispatch window of blocks, and count x 4 MiB would eat
  // the pool budget. Mints count as misses (they are mallocs — at setup
  // time, not on the hot path).
  void prewarm(size_t max_bytes, int count);

  PoolStats stats() const;

  // Size class for a request, or -1 when it exceeds kMaxClassBytes (such
  // requests go straight to the heap and count as misses).
  static int class_for(size_t n);
  static size_t class_bytes(int cls) { return kMinClassBytes << cls; }

  // Process-wide pool all wire-path Bytes come from (obs-mirrored).
  static BufferPool& wire();

 private:
  class Core;
  Core* core_;
};

// --- Exact-size pool for picture surfaces ----------------------------------
class SurfacePool {
 public:
  explicit SurfacePool(size_t max_pool_bytes = size_t(512) << 20,
                       PoolObsFamilies obs_families = {});
  ~SurfacePool();
  SurfacePool(const SurfacePool&) = delete;
  SurfacePool& operator=(const SurfacePool&) = delete;

  // Pooled buffer of exactly n bytes, uninitialized. Recycled blocks are
  // reused only for requests of the same n (geometry-keyed).
  Bytes alloc(size_t n);

  PoolStats stats() const;

  // Process-wide pool all plane storage comes from (obs-mirrored).
  static SurfacePool& global();

 private:
  class Core;
  Core* core_;
};

}  // namespace pdw::mem
