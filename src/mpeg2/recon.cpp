#include "mpeg2/recon.h"

#include <algorithm>
#include <cstring>

#include "kernels/kernels.h"

namespace pdw::mpeg2 {

namespace {

// Add an 8x8 residual block onto a prediction region (or write it directly
// for intra macroblocks), clamping to [0, 255].
void add_block(const int16_t* coeff, uint8_t* dst, int stride, bool intra) {
  const auto& k = kernels::active();
  alignas(32) int16_t block[64];
  std::memcpy(block, coeff, sizeof(block));
  k.idct_8x8(block);
  if (intra) {
    k.put_residual_8x8(block, dst, stride);
  } else {
    k.add_residual_8x8(block, dst, stride);
  }
}

}  // namespace

void reconstruct_mb(const Macroblock& mb, const RefSource* fwd,
                    const RefSource* bwd, int mbx, int mby,
                    MacroblockPixels* out) {
  const bool intra = mb.intra();
  if (!intra) {
    motion_compensate(mb, fwd, bwd, mbx, mby, out);
    if (mb.cbp == 0) return;  // pure prediction (skipped / not-coded)
  }

  // Luma blocks 0..3 tile the 16x16 region; block 4 = Cb, block 5 = Cr.
  for (int b = 0; b < 4; ++b) {
    if (!(mb.cbp & (0x20 >> b))) continue;
    const int bx = (b & 1) * 8;
    const int by = (b >> 1) * 8;
    add_block(mb.coeff[b], out->y + by * 16 + bx, 16, intra);
  }
  if (mb.cbp & 0x02) add_block(mb.coeff[4], out->cb, 8, intra);
  if (mb.cbp & 0x01) add_block(mb.coeff[5], out->cr, 8, intra);

  // Intra blocks always have cbp 0x3F, so nothing is left unwritten; for
  // non-intra macroblocks uncoded blocks keep the prediction.
}

void store_mb(Frame* frame, int mbx, int mby, const MacroblockPixels& px) {
  Plane& y = frame->y;
  Plane& cb = frame->cb;
  Plane& cr = frame->cr;
  copy_block(px.y, 16, y.block(mbx * 16, mby * 16, 16, 16), y.stride(), 16, 16);
  copy_block(px.cb, 8, cb.block(mbx * 8, mby * 8, 8, 8), cb.stride(), 8, 8);
  copy_block(px.cr, 8, cr.block(mbx * 8, mby * 8, 8, 8), cr.stride(), 8, 8);
}

MacroblockPixels load_mb(const Frame& frame, int mbx, int mby) {
  const Plane& y = frame.y;
  const Plane& cb = frame.cb;
  const Plane& cr = frame.cr;
  MacroblockPixels px;
  copy_block(y.block(mbx * 16, mby * 16, 16, 16), y.stride(), px.y, 16, 16, 16);
  copy_block(cb.block(mbx * 8, mby * 8, 8, 8), cb.stride(), px.cb, 8, 8, 8);
  copy_block(cr.block(mbx * 8, mby * 8, 8, 8), cr.stride(), px.cr, 8, 8, 8);
  return px;
}

}  // namespace pdw::mpeg2
