#include "mpeg2/frame.h"

#include <cmath>

namespace pdw::mpeg2 {

double psnr(const Plane& a, const Plane& b) {
  PDW_CHECK_EQ(a.width(), b.width());
  PDW_CHECK_EQ(a.height(), b.height());
  double sse = 0.0;
  for (int y = 0; y < a.height(); ++y) {
    const uint8_t* pa = a.row(y);
    const uint8_t* pb = b.row(y);
    for (int x = 0; x < a.width(); ++x) {
      const double d = double(pa[x]) - double(pb[x]);
      sse += d * d;
    }
  }
  if (sse == 0.0) return 99.0;
  const double mse = sse / (double(a.width()) * a.height());
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

MacroblockPixels TileFrame::extract_mb(int mbx, int mby) const {
  PDW_CHECK(contains_mb(mbx, mby));
  MacroblockPixels out;
  copy_block(block(0, mbx * 16, mby * 16, 16, 16), y_.stride(), out.y, 16, 16,
             16);
  copy_block(block(1, mbx * 8, mby * 8, 8, 8), cb_.stride(), out.cb, 8, 8, 8);
  copy_block(block(2, mbx * 8, mby * 8, 8, 8), cr_.stride(), out.cr, 8, 8, 8);
  return out;
}

void TileFrame::insert_mb(int mbx, int mby, const MacroblockPixels& px) {
  PDW_CHECK(contains_mb(mbx, mby));
  copy_block(px.y, 16, block(0, mbx * 16, mby * 16, 16, 16), y_.stride(), 16,
             16);
  copy_block(px.cb, 8, block(1, mbx * 8, mby * 8, 8, 8), cb_.stride(), 8, 8);
  copy_block(px.cr, 8, block(2, mbx * 8, mby * 8, 8, 8), cr_.stride(), 8, 8);
}

}  // namespace pdw::mpeg2
