// Tile decoder unit tests: tile outputs equal the serial decoder's crop,
// halo-driven MC, MEI completeness enforcement, display ordering, flush,
// frozen-frame emission, and the TileRefSource fetch property (same bytes
// as FrameRefSource over the full frame).
#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "common/stats.h"
#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "core/tile_decoder.h"
#include "enc/encoder.h"
#include "mpeg2/decoder.h"
#include "mpeg2/recon.h"
#include "video/generator.h"

namespace pdw::core {
namespace {

std::vector<uint8_t> make_stream(int w, int h, int frames, int me_range = 15) {
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 6;
  cfg.b_frames = 2;
  cfg.target_bpp = 0.4;
  cfg.me_range = me_range;
  const auto gen =
      video::make_scene(video::SceneKind::kMovingObjects, w, h, 31);
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, mpeg2::Frame* f) { gen->render(i, f); });
}

// Drives split + exchange + decode by hand for full control over the halo.
struct Harness {
  Harness(const std::vector<uint8_t>& es, const wall::TileGeometry& geo)
      : root(es), splitter(geo), geo_(geo) {
    splitter.set_stream_info(root.stream_info());
    for (int t = 0; t < geo.tiles(); ++t)
      decoders.push_back(
          std::make_unique<TileDecoder>(geo, t, root.stream_info()));
  }

  // Process picture i; returns per-tile displayed frames (may be empty).
  void step(int i, bool do_exchanges,
            const TileDecoder::DisplayFn& display = nullptr) {
    SplitResult r = splitter.split(root.picture(i), uint32_t(i));
    if (do_exchanges) {
      for (int t = 0; t < geo_.tiles(); ++t)
        for (const MeiInstruction& instr : r.mei[size_t(t)]) {
          if (instr.op != MeiOp::kSend) continue;
          const auto px = decoders[size_t(t)]->extract_for_send(r.info, instr);
          MeiInstruction recv = instr;
          recv.op = MeiOp::kRecv;
          decoders[size_t(instr.peer)]->add_halo_mb(recv, px);
        }
    }
    for (int t = 0; t < geo_.tiles(); ++t)
      decoders[size_t(t)]->decode(r.subpictures[size_t(t)], display);
  }

  RootSplitter root;
  MacroblockSplitter splitter;
  const wall::TileGeometry& geo_;
  std::vector<std::unique_ptr<TileDecoder>> decoders;
};

TEST(TileDecoder, TileEqualsSerialCrop) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  Harness hn(es, geo);

  // Serial reference frames in display order.
  std::vector<mpeg2::Frame> serial;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const mpeg2::Frame& f, const mpeg2::DecodedPictureInfo&) {
    serial.push_back(f);
  });

  std::vector<int> per_tile_count(size_t(geo.tiles()), 0);
  auto check = [&](int t) {
    return [&, t](const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
      const mpeg2::Frame& ref = serial[size_t(info.display_index)];
      for (int y = tf.py0(); y < tf.py1(); ++y)
        for (int x = tf.px0(); x < tf.px1(); ++x)
          ASSERT_EQ(*tf.pixel(0, x, y), ref.y.at(x, y))
              << "tile " << t << " frame " << info.display_index << " at ("
              << x << "," << y << ")";
      ++per_tile_count[size_t(t)];
    };
  };

  for (int i = 0; i < hn.root.picture_count(); ++i) {
    SplitResult r = hn.splitter.split(hn.root.picture(i), uint32_t(i));
    for (int t = 0; t < geo.tiles(); ++t)
      for (const MeiInstruction& instr : r.mei[size_t(t)]) {
        if (instr.op != MeiOp::kSend) continue;
        const auto px = hn.decoders[size_t(t)]->extract_for_send(r.info, instr);
        MeiInstruction recv = instr;
        recv.op = MeiOp::kRecv;
        hn.decoders[size_t(instr.peer)]->add_halo_mb(recv, px);
      }
    for (int t = 0; t < geo.tiles(); ++t)
      hn.decoders[size_t(t)]->decode(r.subpictures[size_t(t)], check(t));
  }
  for (int t = 0; t < geo.tiles(); ++t)
    hn.decoders[size_t(t)]->flush(check(t));
  for (int t = 0; t < geo.tiles(); ++t)
    EXPECT_EQ(per_tile_count[size_t(t)], int(serial.size()));
}

TEST(TileDecoder, MissingHaloIsAHardError) {
  // Decoding a P picture without executing the MEI exchanges must CHECK-fail
  // (no silent on-demand fallback), unless no vector crosses the boundary.
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 8, /*me_range=*/24);
  wall::TileGeometry geo(w, h, 4, 2, 0);
  Harness hn(es, geo);

  // Find the first picture that actually has exchanges.
  bool threw = false;
  for (int i = 0; i < hn.root.picture_count(); ++i) {
    SplitResult r = hn.splitter.split(hn.root.picture(i), uint32_t(i));
    int exchanges = 0;
    for (const auto& mei : r.mei) exchanges += int(mei.size());
    if (exchanges == 0) {
      for (int t = 0; t < geo.tiles(); ++t)
        hn.decoders[size_t(t)]->decode(r.subpictures[size_t(t)], nullptr);
      continue;
    }
    try {
      for (int t = 0; t < geo.tiles(); ++t)
        hn.decoders[size_t(t)]->decode(r.subpictures[size_t(t)], nullptr);
    } catch (const CheckError& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("halo"), std::string::npos);
    }
    break;
  }
  EXPECT_TRUE(threw) << "expected a missing-halo CHECK failure";
}

TEST(TileDecoder, DisplayOrderMatchesSerialSemantics) {
  const int w = 192, h = 160;
  const auto es = make_stream(w, h, 9);
  wall::TileGeometry geo(w, h, 1, 1, 0);
  Harness hn(es, geo);

  std::vector<uint32_t> display_pic_indices;
  std::vector<int> display_indices;
  auto record = [&](const mpeg2::TileFrame&, const TileDisplayInfo& info) {
    display_pic_indices.push_back(info.pic_index);
    display_indices.push_back(info.display_index);
  };
  for (int i = 0; i < hn.root.picture_count(); ++i)
    hn.step(i, true, record);
  hn.decoders[0]->flush(record);

  ASSERT_EQ(int(display_indices.size()), hn.root.picture_count());
  // display_index is a contiguous 0..N-1 sequence.
  for (int i = 0; i < int(display_indices.size()); ++i)
    EXPECT_EQ(display_indices[size_t(i)], i);
  // Decode order differs from display order iff B pictures exist.
  bool reordered = false;
  for (size_t i = 1; i < display_pic_indices.size(); ++i)
    if (display_pic_indices[i] < display_pic_indices[i - 1]) reordered = true;
  EXPECT_TRUE(reordered) << "stream with B pictures must reorder";
}

TEST(TileDecoder, StatsReportMacroblocksAndHalo) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  Harness hn(es, geo);
  size_t halo_total = 0;
  for (int i = 0; i < hn.root.picture_count(); ++i) {
    hn.step(i, true);
    for (int t = 0; t < geo.tiles(); ++t) {
      EXPECT_EQ(hn.decoders[size_t(t)]->macroblocks_decoded_last_picture(),
                geo.tile_mbs(t).count());
      halo_total += hn.decoders[size_t(t)]->halo_mbs_last_picture();
    }
  }
  EXPECT_GT(halo_total, 0u) << "P/B pictures should need remote macroblocks";
}

TEST(TileDecoder, FlushWithoutPicturesIsANoOp) {
  const auto es = make_stream(192, 160, 2);
  wall::TileGeometry geo(192, 160, 1, 1, 0);
  RootSplitter root(es);
  TileDecoder dec(geo, 0, root.stream_info());
  int calls = 0;
  dec.flush([&](const mpeg2::TileFrame&, const TileDisplayInfo&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(TileDecoder, FrozenFrameRepeatsTheLastShownFrame) {
  // Lost pictures either display the pending reference or freeze the last
  // shown frame. The decoder keeps that frame by reference, so a frozen
  // emission must still carry exactly the bytes last handed to the display,
  // even after later decodes recycled the scratch frame it came from. The
  // model tracks which emissions are frozen: a skip with no pending
  // reference, and an I/P picture whose pending reference a skip consumed.
  const int w = 192, h = 160;
  const auto es = make_stream(w, h, 18);
  wall::TileGeometry geo(w, h, 1, 1, 0);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    RootSplitter root(es);
    MacroblockSplitter splitter(geo);
    splitter.set_stream_info(root.stream_info());
    TileDecoder dec(geo, 0, root.stream_info(), HaloPolicy::kConceal);
    SplitMix64 rng(seed);

    std::optional<mpeg2::TileFrame> last;  // deep copy of the last emission
    bool expect_frozen = false;
    int emissions = 0, frozen = 0;
    const auto display = [&](const mpeg2::TileFrame& tf,
                             const TileDisplayInfo&) {
      ++emissions;
      if (expect_frozen) {
        ++frozen;
        if (last) {
          EXPECT_TRUE(tf.y() == last->y() && tf.cb() == last->cb() &&
                      tf.cr() == last->cr())
              << "frozen frame differs from the last shown one";
        }
      }
      last = tf;
    };
    bool pending = false, hole = false;
    for (int i = 0; i < root.picture_count(); ++i) {
      SplitResult r = splitter.split(root.picture(i), uint32_t(i));
      // The first picture always decodes; seed 1 skips the first P so a B
      // decodes with no pending reference behind it.
      const bool skip =
          i > 0 && (seed == 1 ? i == 1 : rng.next_below(4) == 0);
      if (skip) {
        expect_frozen = !pending;
        dec.skip_picture(uint32_t(i), display);
        hole = pending;
        pending = false;
      } else if (r.info.type == mpeg2::PicType::B) {
        expect_frozen = false;
        dec.decode(r.subpictures[0], display);
      } else {
        expect_frozen = !pending && hole;
        dec.decode(r.subpictures[0], display);
        pending = true;
        hole = false;
      }
    }
    expect_frozen = false;
    dec.flush(display);
    EXPECT_GT(emissions, 0);
    if (seed == 1) EXPECT_GT(frozen, 0);
  }
}

// --- TileRefSource fetch property ------------------------------------------
//
// A tile-local reference plus a complete halo must serve exactly the bytes
// FrameRefSource serves from the full frame, for every MC window shape
// (16/17 luma, 8/9 chroma: all four half-pel cases) inside the tile, across
// each edge and across each corner.

struct RefFixture {
  static constexpr int kMbW = 6, kMbH = 5;

  explicit RefFixture(const wall::MbRect& rect)
      : full(kMbW * 16, kMbH * 16), tile(rect.x0, rect.y0, rect.x1, rect.y1) {
    SplitMix64 rng(uint64_t(rect.x0 * 131 + rect.y0 * 17 + rect.x1));
    for (int c = 0; c < 3; ++c)
      for (uint8_t& v : full.plane(c).data()) v = uint8_t(rng.next());
    for (int my = 0; my < kMbH; ++my)
      for (int mx = 0; mx < kMbW; ++mx) {
        const mpeg2::MacroblockPixels px = mpeg2::load_mb(full, mx, my);
        if (tile.contains_mb(mx, my))
          tile.insert_mb(mx, my, px);
        else
          halo.insert(mx, my, px);
      }
  }

  mpeg2::Frame full;
  mpeg2::TileFrame tile;
  HaloCache halo;
};

struct Window {
  int c, x, y, w, h;
};

// Windows of every half-pel shape and plane, positioned in each of the nine
// inside/straddle classes around the tile (classes a narrow tile or the
// picture edge make impossible are skipped), several random draws each.
std::vector<Window> windows_around(const mpeg2::TileFrame& tf, int pic_w,
                                   int pic_h, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Window> out;
  for (int c = 0; c < 3; ++c) {
    const int shift = c == 0 ? 0 : 1;
    const int S = c == 0 ? 16 : 8;
    const int x0 = tf.px0() >> shift, x1 = tf.px1() >> shift;
    const int y0 = tf.py0() >> shift, y1 = tf.py1() >> shift;
    const int W = pic_w >> shift, H = pic_h >> shift;
    for (int hv = 0; hv < 4; ++hv) {
      const int w = S + (hv & 1), h = S + (hv >> 1);
      // Per axis: [lo, hi] ranges of the window origin for inside,
      // straddle-low-edge and straddle-high-edge, clipped to the picture.
      const auto ranges = [](int e0, int e1, int len, int limit) {
        std::vector<std::pair<int, int>> r = {
            {e0, e1 - len}, {e0 - len + 1, e0 - 1}, {e1 - len + 1, e1 - 1}};
        for (auto& [lo, hi] : r) {
          lo = std::max(lo, 0);
          hi = std::min(hi, limit - len);
        }
        return r;
      };
      for (const auto& [xl, xh] : ranges(x0, x1, w, W))
        for (const auto& [yl, yh] : ranges(y0, y1, h, H)) {
          if (xl > xh || yl > yh) continue;
          for (int k = 0; k < 6; ++k)
            out.push_back({c, xl + int(rng.next_below(uint32_t(xh - xl + 1))),
                           yl + int(rng.next_below(uint32_t(yh - yl + 1))), w,
                           h});
        }
    }
  }
  return out;
}

bool straddles(const mpeg2::TileFrame& tf, const Window& win) {
  return !tf.contains_rect(win.c, win.x, win.y, win.w, win.h);
}

class TileRefFetch : public ::testing::TestWithParam<wall::MbRect> {};

TEST_P(TileRefFetch, MatchesFullFrameWithCompleteHalo) {
  const RefFixture fx(GetParam());
  const mpeg2::FrameRefSource want(fx.full);
  int inside = 0, straddle = 0;
  for (const Window& win : windows_around(fx.tile, fx.full.width(),
                                          fx.full.height(), 7)) {
    SCOPED_TRACE(::testing::Message() << "plane " << win.c << " " << win.w
                                      << "x" << win.h << " at (" << win.x
                                      << "," << win.y << ")");
    for (const HaloPolicy policy : {HaloPolicy::kStrict, HaloPolicy::kConceal}) {
      const TileRefSource got(fx.tile, fx.halo, policy, false);
      uint8_t a[17 * 20], b[17 * 20];
      std::memset(a, 0xAB, sizeof(a));
      std::memset(b, 0xAB, sizeof(b));
      want.fetch(win.c, win.x, win.y, win.w, win.h, a, 20);
      got.fetch(win.c, win.x, win.y, win.w, win.h, b, 20);
      ASSERT_EQ(std::memcmp(a, b, sizeof(a)), 0);
      EXPECT_TRUE(got.read());
      EXPECT_FALSE(got.tainted());
    }
    ++(straddles(fx.tile, win) ? straddle : inside);
  }
  EXPECT_GT(straddle, 0);
  // A one-macroblock-wide tile holds no 9-wide chroma window, but every
  // tile holds some luma/chroma shape.
  EXPECT_GT(inside, 0);
}

TEST_P(TileRefFetch, MissingHaloCellThrowsOrConcealsGray) {
  RefFixture fx(GetParam());
  const mpeg2::FrameRefSource want(fx.full);
  const mpeg2::TileFrame& tf = fx.tile;
  int checked = 0;
  for (const Window& win : windows_around(tf, fx.full.width(),
                                          fx.full.height(), 11)) {
    if (!straddles(tf, win)) continue;
    // Drop the halo cell under the window's bottom-right pixel when it is
    // remote (else its top-left one): that cell must be reported missing.
    const int e = win.c == 0 ? 16 : 8;
    int mx = (win.x + win.w - 1) / e, my = (win.y + win.h - 1) / e;
    if (tf.contains_mb(mx, my)) {
      mx = win.x / e;
      my = win.y / e;
    }
    if (tf.contains_mb(mx, my)) continue;  // remote part sits elsewhere
    HaloCache partial;
    for (int y = 0; y < RefFixture::kMbH; ++y)
      for (int x = 0; x < RefFixture::kMbW; ++x)
        if (!tf.contains_mb(x, y) && !(x == mx && y == my))
          partial.insert(x, y, fx.halo.find(x, y)->px);

    uint8_t a[17 * 20], b[17 * 20];
    const TileRefSource strict(tf, partial, HaloPolicy::kStrict, false);
    EXPECT_THROW(strict.fetch(win.c, win.x, win.y, win.w, win.h, b, 20),
                 InternalError);

    const TileRefSource conceal(tf, partial, HaloPolicy::kConceal, false);
    want.fetch(win.c, win.x, win.y, win.w, win.h, a, 20);
    conceal.fetch(win.c, win.x, win.y, win.w, win.h, b, 20);
    EXPECT_TRUE(conceal.tainted());
    for (int r = 0; r < win.h; ++r)
      for (int i = 0; i < win.w; ++i) {
        const int gx = win.x + i, gy = win.y + r;
        const bool missing = gx / e == mx && gy / e == my;
        ASSERT_EQ(int(b[r * 20 + i]), missing ? 128 : int(a[r * 20 + i]))
            << "pixel (" << gx << "," << gy << ") plane " << win.c;
      }
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_P(TileRefFetch, TaintedHaloOrReferenceTaintsOnlyWhenRead) {
  RefFixture fx(GetParam());
  const TileRefSource unread(fx.tile, fx.halo, HaloPolicy::kConceal, true);
  EXPECT_FALSE(unread.tainted());  // a tainted reference nobody read

  HaloCache tainted_halo;
  for (int y = 0; y < RefFixture::kMbH; ++y)
    for (int x = 0; x < RefFixture::kMbW; ++x)
      if (const HaloCache::Entry* e = fx.halo.find(x, y))
        tainted_halo.insert(x, y, e->px, /*tainted=*/true);
  const TileRefSource src(fx.tile, tainted_halo, HaloPolicy::kConceal, false);
  uint8_t b[17 * 20];
  // Inside the tile: reads no halo entry, stays clean.
  src.fetch(0, fx.tile.px0(), fx.tile.py0(), 16, 16, b, 20);
  EXPECT_FALSE(src.tainted());
  // Across the tile's top or bottom edge: reads a tainted entry.
  const int y = fx.tile.py0() > 0 ? fx.tile.py0() - 4 : fx.tile.py1() - 12;
  src.fetch(0, fx.tile.px0(), y, 16, 16, b, 20);
  EXPECT_TRUE(src.tainted());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TileRefFetch,
    ::testing::Values(wall::MbRect{2, 1, 3, 4},   // one macroblock wide
                      wall::MbRect{0, 2, 6, 4},   // full picture width
                      wall::MbRect{1, 0, 4, 2}),  // top edge, interior cols
    [](const ::testing::TestParamInfo<wall::MbRect>& info) {
      const wall::MbRect& r = info.param;
      return r.x1 - r.x0 == 1 ? std::string("OneMbWide")
             : r.x1 - r.x0 == RefFixture::kMbW ? std::string("FullWidth")
                                               : std::string("TopEdge");
    });

}  // namespace
}  // namespace pdw::core
