// Tile decoder (paper's "decoder D" node).
//
// Decodes the sub-pictures for one screen tile. Holds reference frames for
// its own tile region only; motion compensation that crosses the tile
// boundary reads from a *halo* of remote macroblocks delivered through the
// MEI exchanges before the picture is decoded. There is no on-demand remote
// fetch path at all — the splitter's pre-calculation must be complete.
//
// Two halo policies:
//  * kStrict  — a missing halo entry is a hard CHECK failure (the lockstep
//               decoder's tested invariant: pre-calculation is complete).
//  * kConceal — a missing halo entry (or a missing reference frame) is
//               concealed with mid-gray pixels and the reconstructed frame
//               is marked *tainted*. The fault-tolerant cluster runtime uses
//               this so a decoder can keep the wall alive through message
//               loss and node death, while taint tracking guarantees that
//               any frame NOT flagged degraded is bit-exact.
//
// Taint propagates like pixels do: a frame is tainted if reconstruction
// concealed anything, or if it actually read a tainted (or missing)
// reference frame or a tainted halo entry. I pictures read nothing, so
// taint self-clears at the next I — the paper's GOP structure is what makes
// degraded-mode recovery converge.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "core/mei.h"
#include "core/subpicture.h"
#include "mpeg2/frame.h"
#include "mpeg2/motion.h"
#include "wall/geometry.h"

namespace pdw::core {

enum class HaloPolicy { kStrict, kConceal };

// Remote macroblocks for one reference direction of the picture currently
// being decoded, keyed by packed macroblock coordinates. Entries remember
// whether the sender's reference was itself degraded, so taint crosses
// decoder boundaries.
class HaloCache {
 public:
  struct Entry {
    mpeg2::MacroblockPixels px;
    bool tainted = false;
  };

  void insert(int mbx, int mby, const mpeg2::MacroblockPixels& px,
              bool tainted = false) {
    map_[key(mbx, mby)] = Entry{px, tainted};
  }
  const Entry* find(int mbx, int mby) const {
    const auto it = map_.find(key(mbx, mby));
    return it == map_.end() ? nullptr : &it->second;
  }
  void clear() { map_.clear(); }
  size_t size() const { return map_.size(); }

 private:
  static uint64_t key(int mbx, int mby) {
    return (uint64_t(mby) << 32) | uint32_t(mbx);
  }
  std::unordered_map<uint64_t, Entry> map_;
};

// RefSource over a tile-local reference frame plus its halo of remote
// macroblocks. Gathers a prediction window that may straddle local/remote
// macroblocks arbitrarily. Same pixel values as the serial decoder's full
// frame => identical MC arithmetic => bit-exact reconstruction.
//
// Fetch invariant: the same bytes FrameRefSource would copy, at the same
// cost shape. A window inside the tile frame (nearly every one) is resolved
// once and copied one memcpy per row at the plane stride. A window that
// crosses the tile edge is cut at macroblock boundaries — at most 2x2 cells
// for MC windows — and each cell's source (local rows, halo entry, or the
// missing-halo policy) is resolved once per cell, never per row.
//
// Under HaloPolicy::kConceal a missing halo macroblock is filled with
// mid-gray instead of aborting, and the source records that it concealed;
// reading a tainted halo entry also marks the source. The decoder folds
// these flags (together with whether the source was read at all) into the
// reconstructed frame's taint bit.
class TileRefSource final : public mpeg2::RefSource {
 public:
  TileRefSource(const mpeg2::TileFrame& tf, const HaloCache& halo,
                HaloPolicy policy, bool ref_tainted)
      : tf_(&tf), halo_(&halo), policy_(policy), ref_tainted_(ref_tainted) {}

  void fetch(int c, int x, int y, int w, int h, uint8_t* dst,
             int stride) const override;

  bool read() const { return read_; }
  // True if this source delivered any pixels that are not bit-exact: a
  // concealed/tainted halo entry, or any read of a tainted reference frame.
  bool tainted() const { return concealed_ || (read_ && ref_tainted_); }

 private:
  // Copy the part of the window that lies in macroblock cell (mbx, mby):
  // global plane-c rect [x, x+w) x [y, y+h) into dst rows of `stride`.
  void fetch_cell(int c, int mbx, int mby, int x, int y, int w, int h,
                  uint8_t* dst, int stride) const;

  const mpeg2::TileFrame* tf_;
  const HaloCache* halo_;
  HaloPolicy policy_;
  bool ref_tainted_;
  mutable bool read_ = false;
  mutable bool concealed_ = false;
};

struct TileDisplayInfo {
  uint32_t pic_index = 0;   // decode order of the picture (or its trigger)
  int display_index = 0;    // display slot (global, not per-tile)
  mpeg2::PicType type = mpeg2::PicType::I;
  bool degraded = false;    // concealed/frozen content; bit-exact iff false
  // Partition epoch whose geometry the frame was decoded under (0 on a
  // static wall). The assembler must place the frame with that epoch's
  // tile rect — reorder delay means it can trail the decoder's current one.
  uint32_t epoch = 0;
};

class TileDecoder {
 public:
  TileDecoder(const wall::TileGeometry& geo, int tile, const StreamInfo& info,
              HaloPolicy policy = HaloPolicy::kStrict);
  ~TileDecoder();

  int tile() const { return tile_; }

  // Adopt a new partition epoch's geometry: the tile keeps its index and its
  // reference frames (their own rects ride along — the pending reference
  // still displays, and closed GOPs guarantee no post-switch picture reads a
  // pre-switch reference), but all *future* reconstruction happens in the
  // new rect. Call only between pictures, at a closed-GOP boundary.
  void rebase(const wall::TileGeometry& geo);
  uint32_t epoch() const { return epoch_; }

  // SEND execution: extract the requested reference macroblock from this
  // decoder's local reference frames (instr.ref: 0 = forward reference of
  // the picture about to be decoded, 1 = backward). CHECK-fails if the
  // reference does not exist (lockstep invariant).
  mpeg2::MacroblockPixels extract_for_send(const PicInfo& pic,
                                           const MeiInstruction& instr) const;

  // Fault-tolerant SEND: a missing reference yields mid-gray pixels and
  // *degraded = true; a tainted reference yields its (wrong but valid)
  // pixels and *degraded = true.
  mpeg2::MacroblockPixels try_extract_for_send(const PicInfo& pic,
                                               const MeiInstruction& instr,
                                               bool* degraded) const;

  // RECV delivery: store a remote macroblock into the halo for the upcoming
  // picture.
  void add_halo_mb(const MeiInstruction& instr,
                   const mpeg2::MacroblockPixels& px, bool tainted = false);

  // CONCEAL delivery: the splitter determined that no slice produced this
  // macroblock (bitstream damage). Staged like halo entries and executed
  // during the next decode(); concealed macroblocks count toward the tile's
  // completeness invariant. The identical plan runs in the serial concealing
  // decoder, so concealed frames stay bit-exact across the wall.
  void stage_conceal(const MeiInstruction& instr);

  // Decode one sub-picture. All halo entries for this picture must have been
  // added. Calls `display` zero or more times (display-order reordering, as
  // in the serial decoder). Halo is cleared afterwards.
  //
  // Display slots are *stateless*: every emission triggered by the picture
  // at decode index j lands at display slot j - 1, and flush() emits at the
  // last decoded index. This is what makes mid-stream adoption and skipped
  // pictures compose: a decoder that starts at picture c, or skips picture
  // s, still puts every frame it does produce in the right wall slot.
  using DisplayFn =
      std::function<void(const mpeg2::TileFrame&, const TileDisplayInfo&)>;
  void decode(const SubPicture& sp, const DisplayFn& display);

  // The picture at decode index `pic_index` was lost (undeliverable after
  // retries). Emits exactly one degraded frame at slot pic_index - 1 (the
  // pending reference if one exists, else a frozen copy of the last shown
  // frame), and poisons the reference state until the next I picture —
  // the decoder cannot know whether the lost picture was a reference.
  void skip_picture(uint32_t pic_index, const DisplayFn& display);

  // Flush the pending reference tile at end of stream.
  void flush(const DisplayFn& display);

  // Statistics.
  int macroblocks_decoded_last_picture() const { return last_mb_count_; }
  size_t halo_mbs_last_picture() const { return last_halo_count_; }
  int concealed_mbs_last_picture() const { return last_conceal_count_; }

 private:
  class GrayRefSource;

  void emit(const mpeg2::TileFrame& frame, const TileDisplayInfo& info,
            const DisplayFn& display);
  void emit_frozen(int slot, const DisplayFn& display);

  const wall::TileGeometry* geo_;
  int tile_;
  mpeg2::SequenceHeader seq_;
  wall::MbRect rect_;
  uint32_t epoch_ = 0;
  HaloPolicy policy_;

  std::unique_ptr<mpeg2::TileFrame> cur_, ref_old_, ref_new_;
  bool taint_old_ = false, taint_new_ = false;
  HaloCache halo_[2];  // [0] forward, [1] backward for the upcoming picture

  std::vector<MeiInstruction> staged_conceals_;
  int last_conceal_count_ = 0;

  bool pending_ref_ = false;
  TileDisplayInfo pending_info_;
  bool pending_hole_ = false;  // a skip consumed the pending reference; the
                               // next reference trigger must emit a frozen
                               // frame to keep one-emission-per-slot
  int64_t last_pic_index_ = -1;
  // The last displayed frame, kept by reference: it is one of cur_,
  // ref_old_, ref_new_ or held_. Before decode() writes into cur_ while cur_
  // is the one shown, it swaps cur_ with held_, so the shown frame lives on
  // untouched in held_ and emit() never copies pixels.
  const mpeg2::TileFrame* last_shown_ = nullptr;
  std::unique_ptr<mpeg2::TileFrame> held_;
  uint32_t last_shown_epoch_ = 0;
  int last_mb_count_ = 0;
  size_t last_halo_count_ = 0;
};

}  // namespace pdw::core
