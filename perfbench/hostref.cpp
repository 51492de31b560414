#include "hostref.h"

#include <chrono>

namespace perfbench {

namespace {

constexpr size_t kStride = 3840;         // source row: a 1080p luma row pair
constexpr size_t kSrcBytes = 12u << 20;  // 12 MiB: misses L2, like a frame set
constexpr size_t kDstBytes = 3u << 20;
constexpr size_t kDstStride = 1920;
constexpr size_t kBlocks = 40000;

}  // namespace

HostReference::HostReference() : src_(kSrcBytes), dst_(kDstBytes) {
  for (size_t i = 0; i < src_.size(); ++i) src_[i] = uint8_t(i * 31);
}

double HostReference::run() {
  // Half-pel averaged 16x16 block copies from pseudo-random source spots:
  // the access pattern of motion compensation.
  const auto t0 = std::chrono::steady_clock::now();
  const uint8_t* src = src_.data();
  uint8_t* dst = dst_.data();
  const size_t rows = kSrcBytes / kStride;
  uint32_t rng = rng_;
  for (size_t b = 0; b < kBlocks; ++b) {
    rng = rng * 1664525u + 1013904223u;
    const size_t sx = (rng >> 8) % (kStride - 16);
    const size_t sy = (rng >> 3) % (rows - 16);
    const size_t d = (b * 16) % (kDstBytes - 16 * kStride);
    for (size_t r = 0; r < 16; ++r) {
      const uint8_t* s = src + (sy + r) * kStride + sx;
      uint8_t* o = dst + d + r * kDstStride;
      for (int c = 0; c < 16; ++c) o[c] = uint8_t((s[c] + s[c + 1] + 1) >> 1);
    }
  }
  rng_ = rng;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
