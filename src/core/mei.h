// Macroblock Exchange Instructions (paper §4.2).
//
// The second-level splitter parses every motion vector, so it knows exactly
// which decoder will need which remote reference macroblocks. For a
// macroblock of tile i whose prediction window crosses into macroblocks
// owned by tile j, the splitter appends SEND(x, y, i) to tile j's list and
// RECV(x, y, j) to tile i's. Decoders execute all SENDs *before* decoding
// the picture — the referenced data lives in already-decoded reference
// frames — which removes on-demand fetch latency and any need for a server
// thread, and doubles as a synchronization barrier.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pdw::core {

enum class MeiOp : uint8_t {
  kSend = 0,
  kRecv = 1,
  // CONCEAL(x, y): the slice that should have produced this macroblock was
  // damaged; reconstruct it by concealment (zero-MV copy from the forward
  // reference, or the flat fill carried in ref/peer) instead of from parsed
  // syntax. Emitted by the mb-splitter alongside SEND/RECV so every tile
  // applies the same plan as a serial concealing decoder.
  kConceal = 2,
};

struct MeiInstruction {
  MeiOp op = MeiOp::kSend;
  uint8_t ref = 0;    // SEND/RECV: 0 = forward ref, 1 = backward ref.
                      // CONCEAL: luma flat-fill value.
  uint16_t mb_x = 0;  // macroblock coordinates of the reference block
  uint16_t mb_y = 0;
  uint16_t peer = 0;  // SEND: destination tile; RECV: source tile.
                      // CONCEAL: (fill_cb << 8) | fill_cr.

  friend bool operator==(const MeiInstruction&, const MeiInstruction&) = default;
};

// Pack / unpack the CONCEAL flat-fill bytes into the existing 8-byte wire
// entry (ref carries fill_y; peer carries fill_cb/fill_cr).
inline MeiInstruction make_conceal(int mb_x, int mb_y, uint8_t fill_y,
                                   uint8_t fill_cb, uint8_t fill_cr) {
  MeiInstruction i;
  i.op = MeiOp::kConceal;
  i.ref = fill_y;
  i.mb_x = uint16_t(mb_x);
  i.mb_y = uint16_t(mb_y);
  i.peer = uint16_t((uint16_t(fill_cb) << 8) | fill_cr);
  return i;
}
inline uint8_t conceal_fill_y(const MeiInstruction& i) { return i.ref; }
inline uint8_t conceal_fill_cb(const MeiInstruction& i) {
  return uint8_t(i.peer >> 8);
}
inline uint8_t conceal_fill_cr(const MeiInstruction& i) {
  return uint8_t(i.peer & 0xFF);
}

// Wire size of one instruction: [op][ref][mb_x][mb_y][peer], written and
// read once, by proto/wire.cpp's put_mei/take_mei.
inline constexpr size_t kMeiWireBytes = 8;

}  // namespace pdw::core
