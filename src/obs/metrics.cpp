#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace pdw::obs {

uint64_t Histogram::percentile_of(
    std::span<const std::pair<int, uint64_t>> buckets, uint64_t n, double p) {
  if (n == 0) return 0;
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  const uint64_t rank =
      std::max<uint64_t>(1, uint64_t(std::ceil(clamped / 100.0 * double(n))));
  uint64_t cum = 0;
  for (const auto& [i, c] : buckets) {
    cum += c;
    if (cum >= rank) return bucket_lower(i);
  }
  return bucket_lower(kBuckets - 1);
}

uint64_t Histogram::percentile(double p) const {
  // observe() bumps the bucket before the count, so reading the count first
  // keeps a concurrent sample from pushing the rank past the buckets read.
  const uint64_t n = count();
  std::pair<int, uint64_t> b[kBuckets];
  for (int i = 0; i < kBuckets; ++i) b[i] = {i, bucket(i)};
  return percentile_of(b, n, p);
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    const uint64_t c = other.bucket(i);
    if (c) buckets_[size_t(i)].fetch_add(c, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
}

uint64_t MetricsSnapshot::counter_total(std::string_view family) const {
  uint64_t total = 0;
  for (const MetricValue& v : values)
    if (v.kind == MetricKind::kCounter && v.family == family) total += v.count;
  return total;
}

uint64_t MetricsSnapshot::counter_value(std::string_view family,
                                        Labels labels) const {
  for (const MetricValue& v : values)
    if (v.kind == MetricKind::kCounter && v.family == family &&
        v.labels == labels)
      return v.count;
  return 0;
}

Counter& MetricsRegistry::counter(std::string_view family, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[Key{std::string(family), labels}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view family, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[Key{std::string(family), labels}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view family, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[Key{std::string(family), labels}];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, c] : counters_) {
    MetricValue v;
    v.family = key.first;
    v.labels = key.second;
    v.kind = MetricKind::kCounter;
    v.count = c->value();
    snap.values.push_back(std::move(v));
  }
  for (const auto& [key, g] : gauges_) {
    MetricValue v;
    v.family = key.first;
    v.labels = key.second;
    v.kind = MetricKind::kGauge;
    v.gauge = g->value();
    snap.values.push_back(std::move(v));
  }
  for (const auto& [key, h] : histograms_) {
    MetricValue v;
    v.family = key.first;
    v.labels = key.second;
    v.kind = MetricKind::kHistogram;
    v.count = h->count();
    v.sum = h->sum();
    v.p50 = h->p50();
    v.p95 = h->p95();
    v.p99 = h->p99();
    for (int i = 0; i < Histogram::kBuckets; ++i)
      if (const uint64_t c = h->bucket(i))
        v.buckets.emplace_back(Histogram::bucket_lower(i), c);
    snap.values.push_back(std::move(v));
  }
  std::sort(snap.values.begin(), snap.values.end(),
            [](const MetricValue& a, const MetricValue& b) {
              if (a.family != b.family) return a.family < b.family;
              return a.labels < b.labels;
            });
  return snap;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, c] : counters_) c->reset();
  for (auto& [key, g] : gauges_) g->reset();
  for (auto& [key, h] : histograms_) h->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed
  return *reg;
}

}  // namespace pdw::obs
