#include "check.h"

namespace perfbench {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// Hash the w x h window at (x, y) of `plane` into `h`.
void hash_window(const pdw::mpeg2::Plane& plane, int x, int y, int w, int h,
                 uint64_t* acc) {
  for (int r = 0; r < h; ++r) {
    const uint8_t* row = plane.row(y + r) + x;
    for (int c = 0; c < w; ++c) *acc = (*acc ^ row[c]) * kFnvPrime;
  }
}

}  // namespace

uint64_t tile_hash(const pdw::mpeg2::TileFrame& tile) {
  uint64_t acc = kFnvOffset;
  hash_window(tile.y(), 0, 0, tile.y().width(), tile.y().height(), &acc);
  hash_window(tile.cb(), 0, 0, tile.cb().width(), tile.cb().height(), &acc);
  hash_window(tile.cr(), 0, 0, tile.cr().width(), tile.cr().height(), &acc);
  return acc;
}

uint64_t frame_rect_hash(const pdw::mpeg2::Frame& frame, int mb_x0, int mb_y0,
                         int mb_x1, int mb_y1) {
  uint64_t acc = kFnvOffset;
  const int w = mb_x1 - mb_x0, h = mb_y1 - mb_y0;
  hash_window(frame.y, mb_x0 * 16, mb_y0 * 16, w * 16, h * 16, &acc);
  hash_window(frame.cb, mb_x0 * 8, mb_y0 * 8, w * 8, h * 8, &acc);
  hash_window(frame.cr, mb_x0 * 8, mb_y0 * 8, w * 8, h * 8, &acc);
  return acc;
}

}  // namespace perfbench
