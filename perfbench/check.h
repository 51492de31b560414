// Bit-exactness check of displayed tiles against the serial decoder: a
// tile frame and the serial frame cropped to the tile's macroblock rect hash
// to the same value iff every luma and chroma sample matches (up to 64-bit
// hash collisions).
#pragma once

#include <cstdint>

#include "mpeg2/frame.h"

namespace perfbench {

// FNV-1a over the tile's three planes, row by row.
uint64_t tile_hash(const pdw::mpeg2::TileFrame& tile);

// The same hash over the macroblock rect [mb_x0, mb_x1) x [mb_y0, mb_y1) of
// a full serial frame.
uint64_t frame_rect_hash(const pdw::mpeg2::Frame& frame, int mb_x0, int mb_y0,
                         int mb_x1, int mb_y1);

}  // namespace perfbench
