#include "mem/pool.h"

#include <algorithm>
#include <bit>
#include <new>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace pdw::mem {

namespace detail {

BlockHeader* new_heap_block(size_t capacity) {
  void* raw = ::operator new(sizeof(BlockHeader) + capacity);
  auto* b = new (raw) BlockHeader();
  b->capacity = capacity;
  return b;
}

void delete_block(BlockHeader* b) {
  b->~BlockHeader();
  ::operator delete(static_cast<void*>(b));
}

}  // namespace detail

namespace {

std::atomic<bool> g_pooling_enabled{true};

// Shard affinity: one stable index per thread, cheap to read on every
// alloc/free. Threads that die take nothing with them — their blocks
// already live in the shard, where a successor (or a stealing sibling)
// finds them.
int this_thread_shard(int shards) {
  static thread_local const size_t tag =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return int(tag % size_t(shards));
}

// Local counters + optional obs mirrors, shared by both pool kinds.
struct StatsCore {
  std::atomic<uint64_t> hits{0}, misses{0}, recycles{0}, steals{0};
  std::atomic<int64_t> bytes_in_flight{0};
  std::atomic<uint64_t> pooled_bytes{0};
  std::atomic<uint64_t> budget_fallbacks{0};

  obs::Counter* obs_hits = nullptr;
  obs::Counter* obs_misses = nullptr;
  obs::Counter* obs_recycles = nullptr;
  obs::Gauge* obs_in_flight = nullptr;
  obs::Counter* obs_budget_fallbacks = nullptr;

  void resolve(const PoolObsFamilies& fams) {
    auto& reg = obs::MetricsRegistry::global();
    if (fams.hits) obs_hits = &reg.counter(fams.hits);
    if (fams.misses) obs_misses = &reg.counter(fams.misses);
    if (fams.recycles) obs_recycles = &reg.counter(fams.recycles);
    if (fams.bytes_in_flight) obs_in_flight = &reg.gauge(fams.bytes_in_flight);
    if (fams.budget_fallbacks)
      obs_budget_fallbacks = &reg.counter(fams.budget_fallbacks);
  }

  void on_hit(size_t cap, bool stolen) {
    hits.fetch_add(1, std::memory_order_relaxed);
    if (stolen) steals.fetch_add(1, std::memory_order_relaxed);
    bytes_in_flight.fetch_add(int64_t(cap), std::memory_order_relaxed);
    if (obs_hits) obs_hits->add(1);
    if (obs_in_flight) obs_in_flight->add(int64_t(cap));
  }
  void on_miss(size_t cap) {
    misses.fetch_add(1, std::memory_order_relaxed);
    bytes_in_flight.fetch_add(int64_t(cap), std::memory_order_relaxed);
    if (obs_misses) obs_misses->add(1);
    if (obs_in_flight) obs_in_flight->add(int64_t(cap));
  }
  void on_budget_fallback() {
    budget_fallbacks.fetch_add(1, std::memory_order_relaxed);
    if (obs_budget_fallbacks) obs_budget_fallbacks->add(1);
  }
  void on_release(size_t cap, bool recycled) {
    bytes_in_flight.fetch_sub(int64_t(cap), std::memory_order_relaxed);
    if (recycled) recycles.fetch_add(1, std::memory_order_relaxed);
    if (obs_in_flight) obs_in_flight->add(-int64_t(cap));
    if (recycled && obs_recycles) obs_recycles->add(1);
  }

  PoolStats snapshot() const {
    PoolStats s;
    s.hits = hits.load(std::memory_order_relaxed);
    s.misses = misses.load(std::memory_order_relaxed);
    s.recycles = recycles.load(std::memory_order_relaxed);
    s.steals = steals.load(std::memory_order_relaxed);
    s.bytes_in_flight = bytes_in_flight.load(std::memory_order_relaxed);
    s.pooled_bytes = pooled_bytes.load(std::memory_order_relaxed);
    s.budget_fallbacks = budget_fallbacks.load(std::memory_order_relaxed);
    return s;
  }
};

// Heap-fallback allocation: a block no pool will ever recycle. It still
// carries the core pointer, because the miss was counted into
// bytes_in_flight and the release must unwind it — a core-less block would
// leak in-flight accounting forever (the budget-edge drain check in
// tests/test_mem.cpp holds it to that).
Bytes heap_bytes(size_t n, PoolCore* core, StatsCore& stats) {
  BlockHeader* b = detail::new_heap_block(n);
  b->core = core;
  core->ref();
  stats.on_miss(n);
  return detail::adopt_block(b, n);
}

}  // namespace

void set_pooling_enabled(bool enabled) {
  g_pooling_enabled.store(enabled, std::memory_order_relaxed);
}
bool pooling_enabled() {
  return g_pooling_enabled.load(std::memory_order_relaxed);
}

namespace {
std::atomic<bool> g_copy_through{false};
}
void set_copy_through(bool enabled) {
  g_copy_through.store(enabled, std::memory_order_relaxed);
}
bool copy_through() {
  return g_copy_through.load(std::memory_order_relaxed);
}

// --- BufferPool ------------------------------------------------------------

class BufferPool::Core : public PoolCore {
 public:
  Core(size_t max_pool_bytes, PoolObsFamilies fams)
      : max_pool_bytes_(max_pool_bytes) {
    stats_.resolve(fams);
  }

  Bytes alloc(size_t n) {
    const int cls = class_for(n);
    if (cls < 0 || !pooling_enabled()) return heap_bytes(n, this, stats_);

    const size_t cap = class_bytes(cls);
    const int home = this_thread_shard(kShards);
    for (int i = 0; i < kShards; ++i) {
      const int s = (home + i) % kShards;
      BlockHeader* b = nullptr;
      {
        std::lock_guard<std::mutex> lk(shards_[s].mu);
        b = shards_[s].free_list[cls];
        if (b) shards_[s].free_list[cls] = b->next;
      }
      if (b) {
        b->next = nullptr;
        b->refs.store(1, std::memory_order_relaxed);
        ref();  // the block pins the core again
        stats_.on_hit(cap, /*stolen=*/i != 0);
        return detail::adopt_block(b, n);
      }
    }

    // Freelist dry: mint a new pooled block, unless the budget is spent —
    // then degrade to a plain heap block (exhaustion fallback).
    const uint64_t minted =
        stats_.pooled_bytes.fetch_add(cap, std::memory_order_relaxed);
    if (minted + cap > max_pool_bytes_) {
      stats_.pooled_bytes.fetch_sub(cap, std::memory_order_relaxed);
      stats_.on_budget_fallback();
      return heap_bytes(n, this, stats_);
    }
    BlockHeader* b = detail::new_heap_block(cap);
    b->size_class = uint32_t(cls);
    b->core = this;
    ref();
    stats_.on_miss(cap);
    return detail::adopt_block(b, n);
  }

  void recycle(BlockHeader* b) override {
    if (b->size_class == BlockHeader::kHeapClass) {
      // Heap fallback: never entered the pool budget, only unwind in-flight.
      stats_.on_release(b->capacity, /*recycled=*/false);
      detail::delete_block(b);
      return;
    }
    if (!active_.load(std::memory_order_acquire) || !pooling_enabled()) {
      stats_.on_release(b->capacity, /*recycled=*/false);
      stats_.pooled_bytes.fetch_sub(b->capacity, std::memory_order_relaxed);
      detail::delete_block(b);
      return;
    }
    stats_.on_release(b->capacity, /*recycled=*/true);
    const int s = this_thread_shard(kShards);
    const int cls = int(b->size_class);
    std::lock_guard<std::mutex> lk(shards_[s].mu);
    b->next = shards_[s].free_list[cls];
    shards_[s].free_list[cls] = b;
  }

  void drain() {
    active_.store(false, std::memory_order_release);
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lk(shard.mu);
      for (auto& head : shard.free_list) {
        while (head) {
          BlockHeader* b = head;
          head = b->next;
          detail::delete_block(b);
        }
      }
    }
  }

  PoolStats stats() const { return stats_.snapshot(); }

 private:
  struct Shard {
    std::mutex mu;
    BlockHeader* free_list[kClasses] = {};
  };

  Shard shards_[kShards];
  const size_t max_pool_bytes_;
  StatsCore stats_;
};

BufferPool::BufferPool(size_t max_pool_bytes, PoolObsFamilies obs_families)
    : core_(new Core(max_pool_bytes, obs_families)) {}

BufferPool::~BufferPool() {
  core_->drain();
  core_->unref();
}

Bytes BufferPool::alloc(size_t n) {
  if (n == 0) return {};
  return core_->alloc(n);
}

void BufferPool::prewarm(size_t max_bytes, int count) {
  if (!pooling_enabled()) return;
  int top = class_for(max_bytes);
  if (top < 0) top = kClasses - 1;
  // `count` is sized for the message classes (sub-picture and exchange
  // bodies), whose peak concurrency scales with tiles. The picture-sized
  // classes only ever hold a dispatch window of blocks, so cap each
  // class's minting by bytes instead of letting count x 4 MiB blocks eat
  // the pool budget.
  constexpr size_t kPerClassByteCap = size_t(16) << 20;
  constexpr int kMinPerClass = 8;
  std::vector<Bytes> minted;
  for (int cls = 0; cls <= top; ++cls) {
    const size_t cap = class_bytes(cls);
    int n = count;
    if (size_t(n) * cap > kPerClassByteCap)
      n = std::max(kMinPerClass, int(kPerClassByteCap / cap));
    minted.reserve(size_t(n));
    for (int i = 0; i < n; ++i) minted.push_back(alloc(cap));
    minted.clear();  // release to the freelists (budget caps the minting)
  }
}

PoolStats BufferPool::stats() const { return core_->stats(); }


int BufferPool::class_for(size_t n) {
  if (n > kMaxClassBytes) return -1;
  const size_t clamped = n < kMinClassBytes ? kMinClassBytes : n;
  const int cls = std::bit_width(clamped - 1) - std::bit_width(kMinClassBytes - 1);
  return cls;
}

BufferPool& BufferPool::wire() {
  static BufferPool pool(size_t(512) << 20,
                         PoolObsFamilies{
                             .hits = obs::family::kPoolHits,
                             .misses = obs::family::kPoolMisses,
                             .recycles = obs::family::kPoolRecycles,
                             .bytes_in_flight = obs::family::kPoolBytesInFlight,
                             .budget_fallbacks =
                                 obs::family::kPoolBudgetFallbacks,
                         });
  return pool;
}

// --- SurfacePool -----------------------------------------------------------

class SurfacePool::Core : public PoolCore {
 public:
  Core(size_t max_pool_bytes, PoolObsFamilies fams)
      : max_pool_bytes_(max_pool_bytes) {
    stats_.resolve(fams);
  }

  Bytes alloc(size_t n) {
    if (!pooling_enabled()) return heap_bytes(n, this, stats_);
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = free_.find(n);
      if (it != free_.end() && it->second != nullptr) {
        BlockHeader* b = it->second;
        it->second = b->next;
        b->next = nullptr;
        b->refs.store(1, std::memory_order_relaxed);
        ref();
        stats_.on_hit(n, /*stolen=*/false);
        return detail::adopt_block(b, n);
      }
    }
    const uint64_t minted =
        stats_.pooled_bytes.fetch_add(n, std::memory_order_relaxed);
    if (minted + n > max_pool_bytes_) {
      stats_.pooled_bytes.fetch_sub(n, std::memory_order_relaxed);
      stats_.on_budget_fallback();
      return heap_bytes(n, this, stats_);
    }
    BlockHeader* b = detail::new_heap_block(n);
    b->size_class = kSurfaceClass;
    b->core = this;
    ref();
    stats_.on_miss(n);
    return detail::adopt_block(b, n);
  }

  void recycle(BlockHeader* b) override {
    if (b->size_class == BlockHeader::kHeapClass) {
      // Heap fallback: never entered the pool budget, only unwind in-flight.
      stats_.on_release(b->capacity, /*recycled=*/false);
      detail::delete_block(b);
      return;
    }
    if (!active_.load(std::memory_order_acquire) || !pooling_enabled()) {
      stats_.on_release(b->capacity, /*recycled=*/false);
      stats_.pooled_bytes.fetch_sub(b->capacity, std::memory_order_relaxed);
      detail::delete_block(b);
      return;
    }
    stats_.on_release(b->capacity, /*recycled=*/true);
    std::lock_guard<std::mutex> lk(mu_);
    auto& head = free_[b->capacity];
    b->next = head;
    head = b;
  }

  void drain() {
    active_.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [sz, head] : free_) {
      while (head) {
        BlockHeader* b = head;
        head = b->next;
        detail::delete_block(b);
      }
    }
    free_.clear();
  }

  PoolStats stats() const { return stats_.snapshot(); }

 private:
  static constexpr uint32_t kSurfaceClass = 0xFFFFFFFEu;

  std::mutex mu_;
  std::unordered_map<size_t, BlockHeader*> free_;
  const size_t max_pool_bytes_;
  StatsCore stats_;
};

SurfacePool::SurfacePool(size_t max_pool_bytes, PoolObsFamilies obs_families)
    : core_(new Core(max_pool_bytes, obs_families)) {}

SurfacePool::~SurfacePool() {
  core_->drain();
  core_->unref();
}

Bytes SurfacePool::alloc(size_t n) {
  if (n == 0) return {};
  return core_->alloc(n);
}

PoolStats SurfacePool::stats() const { return core_->stats(); }


SurfacePool& SurfacePool::global() {
  static SurfacePool pool(size_t(512) << 20,
                          PoolObsFamilies{
                              .hits = obs::family::kSurfacePoolHits,
                              .misses = obs::family::kSurfacePoolMisses,
                              .recycles = obs::family::kSurfacePoolRecycles,
                              .bytes_in_flight =
                                  obs::family::kSurfacePoolBytesInFlight,
                              .budget_fallbacks =
                                  obs::family::kSurfacePoolBudgetFallbacks,
                          });
  return pool;
}

// --- Bytes constructors ----------------------------------------------------

namespace detail {

Bytes adopt_block(BlockHeader* b, size_t n) {
  Bytes out;
  out.block_ = b;
  out.data_ = b->data();
  out.size_ = n;
  return out;
}

}  // namespace detail

Bytes Bytes::alloc(size_t n) { return BufferPool::wire().alloc(n); }

Bytes Bytes::filled(size_t n, uint8_t v) {
  Bytes b = alloc(n);
  if (n) std::memset(b.mutable_data(), v, n);
  return b;
}

Bytes Bytes::copy_of(std::span<const uint8_t> s) {
  Bytes b = alloc(s.size());
  if (!s.empty()) std::memcpy(b.mutable_data(), s.data(), s.size());
  return b;
}

Bytes Bytes::borrow(std::span<const uint8_t> s) {
  Bytes b;
  b.block_ = nullptr;
  b.data_ = const_cast<uint8_t*>(s.data());
  b.size_ = s.size();
  return b;
}

Bytes Bytes::surface(size_t n, uint8_t fill) {
  Bytes b = surface_uninit(n);
  if (n) std::memset(b.mutable_data(), fill, n);
  return b;
}

Bytes Bytes::surface_uninit(size_t n) { return SurfacePool::global().alloc(n); }

Bytes Bytes::surface_copy(std::span<const uint8_t> s) {
  Bytes b = surface_uninit(s.size());
  if (!s.empty()) std::memcpy(b.mutable_data(), s.data(), s.size());
  return b;
}

}  // namespace pdw::mem
