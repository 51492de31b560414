#include "core/tile_decoder.h"

#include <cstring>

#include "bitstream/bit_reader.h"
#include "mpeg2/conceal.h"
#include "mpeg2/mb_parser.h"
#include "mpeg2/motion.h"
#include "mpeg2/recon.h"

namespace pdw::core {

using namespace mpeg2;

namespace {

MacroblockPixels gray_mb() {
  MacroblockPixels px;
  std::memset(px.y, 128, sizeof(px.y));
  std::memset(px.cb, 128, sizeof(px.cb));
  std::memset(px.cr, 128, sizeof(px.cr));
  return px;
}

}  // namespace

void TileRefSource::fetch(int c, int x, int y, int w, int h, uint8_t* dst,
                          int stride) const {
  read_ = true;
  if (tf_->contains_rect(c, x, y, w, h)) {
    copy_block(tf_->block(c, x, y, w, h), tf_->plane(c).stride(), dst, stride,
               w, h);
    return;
  }
  // RefSource windows lie inside the picture, so coordinates are
  // non-negative and the divisions below are floor divisions.
  PDW_CHECK(x >= 0 && y >= 0 && w > 0 && h > 0)
      << "window " << w << "x" << h << " at (" << x << "," << y << ")";
  const int e = c == 0 ? 16 : 8;  // macroblock edge in this plane
  for (int cy = y; cy < y + h;) {
    const int mby = cy / e;
    const int ch = std::min(y + h, (mby + 1) * e) - cy;
    for (int cx = x; cx < x + w;) {
      const int mbx = cx / e;
      const int cw = std::min(x + w, (mbx + 1) * e) - cx;
      fetch_cell(c, mbx, mby, cx, cy, cw, ch,
                 dst + size_t(cy - y) * stride + (cx - x), stride);
      cx += cw;
    }
    cy += ch;
  }
}

void TileRefSource::fetch_cell(int c, int mbx, int mby, int x, int y, int w,
                               int h, uint8_t* dst, int stride) const {
  if (tf_->contains_mb(mbx, mby)) {
    copy_block(tf_->block(c, x, y, w, h), tf_->plane(c).stride(), dst, stride,
               w, h);
    return;
  }
  const HaloCache::Entry* e = halo_->find(mbx, mby);
  if (e == nullptr) {
    if (policy_ == HaloPolicy::kStrict) {
      PDW_CHECK(e != nullptr)
          << "missing halo macroblock (" << mbx << "," << mby << ") plane "
          << c << " — MEI pre-calculation incomplete";
    }
    concealed_ = true;
    for (int r = 0; r < h; ++r)
      std::memset(dst + size_t(r) * stride, 128, size_t(w));
    return;
  }
  if (e->tainted) concealed_ = true;
  const int edge = c == 0 ? 16 : 8;
  const uint8_t* base = c == 0 ? e->px.y : (c == 1 ? e->px.cb : e->px.cr);
  copy_block(base + (y - mby * edge) * edge + (x - mbx * edge), edge, dst,
             stride, w, h);
}

// Stand-in for a reference frame that does not exist (lost to a skip or a
// fresh adoption). All-gray; any actual read taints the output. If the
// syntax never reads it (e.g. backward-only B pictures right after a
// closed-GOP I), the output stays bit-exact — exactly the property the
// recovery invariant relies on.
class TileDecoder::GrayRefSource final : public RefSource {
 public:
  void fetch(int, int, int, int w, int h, uint8_t* dst,
             int stride) const override {
    read_ = true;
    for (int r = 0; r < h; ++r)
      std::memset(dst + size_t(r) * stride, 128, size_t(w));
  }
  bool read() const { return read_; }

 private:
  mutable bool read_ = false;
};

namespace {

// Sink reconstructing macroblocks into the tile frame. Only macroblocks
// inside the tile rect are materialized; the syntax decoder may synthesize
// interior skips that belong to this tile by construction, so everything the
// sink sees is in-rect (CHECKed).
class TileReconSink final : public MbSink {
 public:
  TileReconSink(const PictureContext& ctx, const wall::MbRect& rect,
                TileFrame* cur, const RefSource* fwd, const RefSource* bwd)
      : ctx_(ctx), rect_(rect), cur_(cur), fwd_(fwd), bwd_(bwd) {}

  void on_macroblock(const Macroblock& mb, const MbState&, size_t,
                     size_t) override {
    const int mbx = mb.mb_x(ctx_.mb_width());
    const int mby = mb.mb_y(ctx_.mb_width());
    PDW_CHECK(rect_.contains(mbx, mby))
        << "sub-picture macroblock (" << mbx << "," << mby
        << ") outside tile rect";
    MacroblockPixels px;
    reconstruct_mb(mb, fwd_, bwd_, mbx, mby, &px);
    cur_->insert_mb(mbx, mby, px);
    // Unique-position count: a damaged slice header can re-claim a row that
    // an earlier slice already delivered. The serial decoder just overwrites
    // (last slice wins), so the tile does too, and completeness is about
    // coverage, not delivery count.
    const size_t idx = size_t(mby - rect_.y0) * size_t(rect_.x1 - rect_.x0) +
                       size_t(mbx - rect_.x0);
    if (!seen_[idx]) {
      seen_[idx] = true;
      ++count_;
    }
  }

  int count() const { return count_; }

 private:
  const PictureContext& ctx_;
  const wall::MbRect& rect_;
  TileFrame* cur_;
  const RefSource* fwd_;
  const RefSource* bwd_;
  std::vector<bool> seen_ = std::vector<bool>(size_t(rect_.count()), false);
  int count_ = 0;
};

}  // namespace

TileDecoder::TileDecoder(const wall::TileGeometry& geo, int tile,
                         const StreamInfo& info, HaloPolicy policy)
    : geo_(&geo),
      tile_(tile),
      seq_(info.seq),
      rect_(geo.tile_mbs(tile)),
      epoch_(geo.epoch()),
      policy_(policy) {
  PDW_CHECK_EQ(seq_.mb_width(), geo.mb_width());
  PDW_CHECK_EQ(seq_.mb_height(), geo.mb_height());
}

TileDecoder::~TileDecoder() = default;

void TileDecoder::rebase(const wall::TileGeometry& geo) {
  PDW_CHECK_EQ(seq_.mb_width(), geo.mb_width());
  PDW_CHECK_EQ(seq_.mb_height(), geo.mb_height());
  geo_ = &geo;
  rect_ = geo.tile_mbs(tile_);
  epoch_ = geo.epoch();
  // The scratch frame (if any) has the old rect; drop it so the next decode
  // allocates in the new one — unless it is the last frame shown, which
  // moves to held_ to stay displayable. Reference frames stay — each
  // carries its own rect, and the pending one still owes the wall a display
  // emission.
  if (cur_ && cur_.get() == last_shown_) held_ = std::move(cur_);
  cur_.reset();
  halo_[0].clear();
  halo_[1].clear();
  staged_conceals_.clear();
}

MacroblockPixels TileDecoder::extract_for_send(
    const PicInfo& pic, const MeiInstruction& instr) const {
  PDW_CHECK(instr.op == MeiOp::kSend);
  // Map the instruction's logical reference to a physical frame for the
  // picture about to be decoded: P uses (fwd = newest I/P); B uses
  // (fwd = older, bwd = newest).
  const TileFrame* src = nullptr;
  if (pic.type == PicType::B)
    src = instr.ref == 0 ? ref_old_.get() : ref_new_.get();
  else
    src = ref_new_.get();
  PDW_CHECK(src != nullptr) << "SEND before reference frames exist";
  return src->extract_mb(instr.mb_x, instr.mb_y);
}

MacroblockPixels TileDecoder::try_extract_for_send(const PicInfo& pic,
                                                   const MeiInstruction& instr,
                                                   bool* degraded) const {
  PDW_CHECK(instr.op == MeiOp::kSend);
  const TileFrame* src = nullptr;
  bool taint = false;
  if (pic.type == PicType::B) {
    src = instr.ref == 0 ? ref_old_.get() : ref_new_.get();
    taint = instr.ref == 0 ? taint_old_ : taint_new_;
  } else {
    src = ref_new_.get();
    taint = taint_new_;
  }
  if (src == nullptr) {
    *degraded = true;
    return gray_mb();
  }
  *degraded = taint;
  return src->extract_mb(instr.mb_x, instr.mb_y);
}

void TileDecoder::add_halo_mb(const MeiInstruction& instr,
                              const MacroblockPixels& px, bool tainted) {
  PDW_CHECK_LE(int(instr.ref), 1);
  halo_[instr.ref].insert(instr.mb_x, instr.mb_y, px, tainted);
}

void TileDecoder::stage_conceal(const MeiInstruction& instr) {
  PDW_CHECK(instr.op == MeiOp::kConceal);
  PDW_CHECK(rect_.contains(instr.mb_x, instr.mb_y))
      << "CONCEAL (" << instr.mb_x << "," << instr.mb_y
      << ") outside tile rect";
  staged_conceals_.push_back(instr);
}

void TileDecoder::emit(const TileFrame& frame, const TileDisplayInfo& info,
                       const DisplayFn& display) {
  if (info.display_index < 0) return;  // slot before this decoder's stream
  last_shown_ = &frame;
  last_shown_epoch_ = info.epoch;
  if (display) display(frame, info);
}

void TileDecoder::emit_frozen(int slot, const DisplayFn& display) {
  if (slot < 0) return;
  if (!last_shown_) {
    // Nothing was ever shown (so held_ holds nothing anyone needs): freeze
    // to mid-gray.
    held_ =
        std::make_unique<TileFrame>(rect_.x0, rect_.y0, rect_.x1, rect_.y1);
    held_->y().fill(128);
    held_->cb().fill(128);
    held_->cr().fill(128);
    last_shown_ = held_.get();
    last_shown_epoch_ = epoch_;
  }
  TileDisplayInfo info;
  info.pic_index = uint32_t(slot + 1);
  info.display_index = slot;
  info.type = PicType::P;
  info.degraded = true;
  info.epoch = last_shown_epoch_;  // the frozen frame's rect, not today's
  if (display) display(*last_shown_, info);
}

void TileDecoder::decode(const SubPicture& sp, const DisplayFn& display) {
  PictureContext ctx;
  ctx.seq = &seq_;
  ctx.ph.type = sp.info.type;
  ctx.ph.temporal_reference = sp.info.temporal_reference;
  ctx.pce = sp.info.to_pce();

  // The scratch frame may still be the last one shown, which emit_frozen()
  // can display again: park it in held_ and decode into the other frame.
  if (cur_ && cur_.get() == last_shown_) std::swap(cur_, held_);
  // The reference rotation below recycles retired frames as scratch; after a
  // rebase a recycled frame still carries the previous epoch's rect.
  if (cur_ && (cur_->mb_x0() != rect_.x0 || cur_->mb_y0() != rect_.y0 ||
               cur_->mb_x1() != rect_.x1 || cur_->mb_y1() != rect_.y1))
    cur_.reset();
  if (!cur_)
    cur_ = std::make_unique<TileFrame>(rect_.x0, rect_.y0, rect_.x1, rect_.y1);

  // Build reference sources. Under kConceal a missing reference frame is
  // replaced by an all-gray stand-in instead of aborting.
  std::unique_ptr<TileRefSource> fwd, bwd;
  GrayRefSource gray_fwd, gray_bwd;
  const RefSource* fwd_src = nullptr;
  const RefSource* bwd_src = nullptr;
  if (sp.info.type == PicType::P) {
    if (policy_ == HaloPolicy::kStrict) PDW_CHECK(ref_new_) << "P without ref";
    if (ref_new_) {
      fwd = std::make_unique<TileRefSource>(*ref_new_, halo_[0], policy_,
                                            taint_new_);
      fwd_src = fwd.get();
    } else {
      fwd_src = &gray_fwd;
    }
  } else if (sp.info.type == PicType::B) {
    if (policy_ == HaloPolicy::kStrict)
      PDW_CHECK(ref_old_ && ref_new_) << "B without two references";
    if (ref_old_) {
      fwd = std::make_unique<TileRefSource>(*ref_old_, halo_[0], policy_,
                                            taint_old_);
      fwd_src = fwd.get();
    } else {
      fwd_src = &gray_fwd;
    }
    if (ref_new_) {
      bwd = std::make_unique<TileRefSource>(*ref_new_, halo_[1], policy_,
                                            taint_new_);
      bwd_src = bwd.get();
    } else {
      bwd_src = &gray_bwd;
    }
  }

  MbSyntaxDecoder syntax(ctx, ParseMode::kFull);
  TileReconSink sink(ctx, rect_, cur_.get(), fwd_src, bwd_src);

  // The splitter scan-validated exactly these bits: a parse failure here is
  // an internal invariant violation (splitter/decoder divergence), not
  // stream damage, so it stays a hard CHECK.
  for (const SpRun& run : sp.runs) {
    syntax.load_state(run.state);
    if (run.lead_skip_count > 0)
      PDW_CHECK(syntax.synthesize_skipped(int(run.lead_skip_addr),
                                          int(run.lead_skip_count), sink));
    if (run.num_coded > 0) {
      BitReader r(run.payload, run.skip_bits);
      const DecodeStatus st =
          syntax.parse_run(r, int(run.first_coded_addr), int(run.num_coded),
                           sink);
      PDW_CHECK(st.ok()) << "sub-picture run failed to parse: " << st;
    }
    if (run.trail_skip_count > 0)
      PDW_CHECK(syntax.synthesize_skipped(int(run.trail_skip_addr),
                                          int(run.trail_skip_count), sink));
  }

  // Execute the concealment plan for macroblocks no slice delivered. The
  // zero-MV window is the macroblock's own footprint, inside the tile rect,
  // so concealment never needs halo pixels.
  for (const MeiInstruction& instr : staged_conceals_) {
    ConcealSpec spec;
    spec.mb_x = instr.mb_x;
    spec.mb_y = instr.mb_y;
    spec.fill_y = conceal_fill_y(instr);
    spec.fill_cb = conceal_fill_cb(instr);
    spec.fill_cr = conceal_fill_cr(instr);
    MacroblockPixels px;
    conceal_mb(sp.info.type, fwd_src, spec, &px);
    cur_->insert_mb(spec.mb_x, spec.mb_y, px);
  }
  last_conceal_count_ = int(staged_conceals_.size());
  staged_conceals_.clear();

  // Completeness: the whole tile rect must have been reconstructed, whether
  // from parsed syntax or from the concealment plan.
  PDW_CHECK_EQ(sink.count() + last_conceal_count_, rect_.count())
      << "tile " << tile_ << " picture " << sp.info.pic_index;
  last_mb_count_ = sink.count();
  last_halo_count_ = halo_[0].size() + halo_[1].size();
  halo_[0].clear();
  halo_[1].clear();

  // Taint of the frame just reconstructed: anything concealed, plus any
  // actual read of a missing (gray) or tainted reference.
  bool tainted = false;
  if (fwd) tainted |= fwd->tainted();
  if (bwd) tainted |= bwd->tainted();
  tainted |= gray_fwd.read() || gray_bwd.read();

  last_pic_index_ = int64_t(sp.info.pic_index);

  // Display-order emission, mirroring the serial decoder but with stateless
  // slots: anything this picture triggers displays at slot pic_index - 1.
  const int slot = int(sp.info.pic_index) - 1;
  TileDisplayInfo info;
  info.pic_index = sp.info.pic_index;
  info.type = sp.info.type;
  info.degraded = tainted;
  info.epoch = epoch_;
  if (sp.info.type == PicType::B) {
    info.display_index = slot;
    emit(*cur_, info, display);
  } else {
    if (pending_ref_) {
      pending_info_.display_index = slot;
      emit(*ref_new_, pending_info_, display);
    } else if (pending_hole_) {
      emit_frozen(slot, display);
    }
    pending_hole_ = false;
    std::swap(ref_old_, ref_new_);
    std::swap(taint_old_, taint_new_);
    std::swap(ref_new_, cur_);
    taint_new_ = tainted;
    if (!cur_)
      cur_ =
          std::make_unique<TileFrame>(rect_.x0, rect_.y0, rect_.x1, rect_.y1);
    pending_ref_ = true;
    pending_info_ = info;
  }
}

void TileDecoder::skip_picture(uint32_t pic_index, const DisplayFn& display) {
  last_pic_index_ = int64_t(pic_index);
  halo_[0].clear();  // any halo/conceal staged for the lost picture is stale
  halo_[1].clear();
  staged_conceals_.clear();
  const int slot = int(pic_index) - 1;
  if (pending_ref_) {
    pending_info_.display_index = slot;
    pending_info_.degraded = true;  // displaced into the lost picture's slot
    emit(*ref_new_, pending_info_, display);
    pending_ref_ = false;
    pending_hole_ = true;
  } else {
    emit_frozen(slot, display);
  }
  // The lost picture may have been a reference; everything predicted from
  // here is suspect until the next I picture re-anchors the taint state.
  taint_old_ = taint_new_ = true;
}

void TileDecoder::flush(const DisplayFn& display) {
  const int slot = int(last_pic_index_);
  if (pending_ref_) {
    pending_info_.display_index = slot;
    emit(*ref_new_, pending_info_, display);
    pending_ref_ = false;
  } else if (pending_hole_) {
    emit_frozen(slot, display);
    pending_hole_ = false;
  }
}

}  // namespace pdw::core
