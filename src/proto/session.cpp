#include "proto/session.h"

#include <map>
#include <utility>

#include "common/check.h"
#include "common/timing.h"
#include "core/mei.h"
#include "core/subpicture.h"
#include "obs/trace.h"

namespace pdw::proto {

// One decoder node plus the tile decoders it hosts (one per owned tile;
// serial streams never adopt, so in practice exactly the home tile).
struct SerialStream::DecoderHost {
  DecoderNode node;
  std::map<int, std::unique_ptr<core::TileDecoder>> decs;

  DecoderHost(const Topology& topo, int tile, const DecoderNode::Options& o)
      : node(topo, tile, o) {}

  core::TileDecoder& dec(int tile, const wall::TileGeometry& geo,
                         const core::StreamInfo& info) {
    auto& slot = decs[tile];
    if (!slot)
      slot = std::make_unique<core::TileDecoder>(geo, tile, info);
    else if (slot->epoch() != geo.epoch())
      slot->rebase(geo);
    return *slot;
  }
};

SerialStream::SerialStream(const wall::TileGeometry& geo, int k,
                           std::span<const uint8_t> es,
                           obs::MetricsRegistry* metrics,
                           RootNode::AdaptivePartition adaptive)
    : geo_(geo),
      table_(geo),
      adaptive_(adaptive.enabled),
      topo_{k, geo.tiles()},
      root_(es) {
  PDW_CHECK_GE(k, 1);
  obs::MetricsRegistry& mreg = obs::registry_or_global(metrics);
  for (int s = 0; s < k; ++s) {
    splitters_.push_back(std::make_unique<core::MacroblockSplitter>(geo));
    splitters_.back()->set_stream_info(root_.stream_info());
    splitter_nodes_.push_back(
        std::make_unique<SplitterNode>(topo_, s));
    splitter_nodes_.back()->set_metrics(metrics);
    sm_.emplace_back();
    sm_.back().resolve(mreg, topo_.splitter(s));
  }
  DecoderNode::Options dopts;
  dopts.total_pictures = uint32_t(root_.picture_count());
  for (int t = 0; t < topo_.tiles; ++t) {
    decoders_.push_back(std::make_unique<DecoderHost>(topo_, t, dopts));
    decoders_.back()->node.set_metrics(metrics);
    dm_.emplace_back();
    dm_.back().resolve(mreg, topo_.decoder(t));
  }

  std::vector<PictureMeta> metas(size_t(root_.picture_count()));
  for (int i = 0; i < root_.picture_count(); ++i)
    metas[size_t(i)].has_gop_header = root_.span(i).has_gop_header;
  RootNode::Options ropts;
  ropts.adaptive = adaptive;
  ropts.adaptive.geo = &geo_;
  root_node_ =
      std::make_unique<RootNode>(topo_, ropts, std::move(metas), /*now=*/0.0);
  root_node_->set_metrics(metrics);

  acct_.reset(topo_.nodes());
  acct_.per_picture_tiles = topo_.tiles;
}

SerialStream::~SerialStream() = default;

int SerialStream::picture_count() const { return root_.picture_count(); }

void SerialStream::deliver(int src, const Outgoing& o) {
  acct_.record(src, o.dst, o.msg.type, o.msg.body.size());
  std::optional<AnyMsg> msg = decode_any(o.msg.body);
  PDW_CHECK(msg.has_value());  // we packed it ourselves
  dispatch(src, o.dst, std::move(*msg));
}

void SerialStream::deliver_sp(int src, int dst, SpMsg msg) {
  acct_.record(src, dst, MsgType::kSubPicture,
               sp_msg_wire_bytes(msg.subpicture.size(), msg.mei.size()));
  dispatch(src, dst, AnyMsg(std::move(msg)));
}

void SerialStream::deliver_exchange(int src, int dst, ExchangeMsg msg) {
  acct_.record_exchange(src, dst, msg);
  dispatch(src, dst, AnyMsg(std::move(msg)));
}

void SerialStream::dispatch(int src, int dst, AnyMsg msg) {
  // The serial bus is lossless and instantaneous: nothing ever times out,
  // dies, or gets adopted, which the PDW_CHECKs below pin down.
  if (dst == topo_.root()) {
    RootNode::Step step = root_node_->on_message(src, msg, /*now=*/0.0);
    PDW_CHECK(step.deaths.empty());
    for (const Outgoing& o : step.send) deliver(dst, o);
    return;
  }
  if (!topo_.is_decoder(dst)) {
    SplitterNode::Step step =
        splitter_nodes_[size_t(dst - 1)]->on_message(src, std::move(msg), 0.0);
    PDW_CHECK(step.forget.empty());
    if (step.partition) install_partition(*step.partition);
    for (const Outgoing& o : step.send) deliver(dst, o);
    return;
  }
  DecoderNode::Step step = decoders_[size_t(topo_.tile_of(dst))]->node
                               .on_message(src, std::move(msg), 0.0);
  PDW_CHECK(step.forget.empty());
  PDW_CHECK(!step.adopt_tile.has_value());
  if (step.partition) install_partition(*step.partition);
  for (const Outgoing& o : step.send) deliver(dst, o);
}

void SerialStream::install_partition(const PartitionUpdateMsg& pu) {
  // The root broadcasts one update to every splitter and decoder; the
  // serial engine hosts them all over one shared table, so only the first
  // arrival installs.
  table_.install_wire(pu.epoch, pu.apply_from_pic, pu.col_cuts_mb,
                      pu.row_cuts_mb);
}

void SerialStream::step(const DisplayFn& on_display, const TraceFn& on_trace) {
  PDW_CHECK(!finished_);
  PDW_CHECK(!done());
  const int tiles = topo_.tiles;
  const uint32_t i = cursor_++;

  PictureTrace tr;
  tr.pic_index = i;
  tr.sp_msg_bytes.assign(size_t(tiles), 0);
  tr.decode_s.assign(size_t(tiles), 0.0);
  tr.serve_s.assign(size_t(tiles), 0.0);
  tr.halo_mbs.assign(size_t(tiles), 0);
  tr.exchange_bytes.reset(tiles);

  const std::span<const uint8_t> span = root_.picture(int(i));
  tr.picture_bytes = span.size();
  tr.has_gop_header = root_.span(int(i)).has_gop_header;

  // Root: the one copy — the ES span is packed straight into a pooled wire
  // body; everything downstream (splitter, sub-pictures) views that block.
  PDW_CHECK(root_node_->may_dispatch());
  std::vector<Outgoing> dispatched;
  {
    PDW_TRACE_SPAN(obs::span::kCopyPic, topo_.root(), i);
    WallTimer t;
    dispatched = root_node_->dispatch(span);
    tr.copy_s = t.seconds();
  }
  // A rebalance decided at this picture rides ahead of it: the partition
  // update lands (and installs into the shared table) before the picture.
  for (const Outgoing& o : dispatched) deliver(topo_.root(), o);

  // Splitter: dequeue (go-ahead back to the root), split, gate on the
  // ANID-redirected acks of picture i-1, route the sub-pictures.
  const int s = topo_.splitter_for_picture(i);
  tr.splitter = s;
  SplitterNode& sn = *splitter_nodes_[size_t(s)];
  PDW_CHECK(sn.has_picture());
  Outgoing go_ahead;
  PictureMsg pic = sn.pop_picture(&go_ahead);
  PDW_CHECK_EQ(pic.pic_index, i);
  deliver(topo_.splitter(s), go_ahead);
  tr.epoch = pic.epoch;
  PDW_CHECK(table_.has_epoch(pic.epoch));
  const wall::TileGeometry& egeo = table_.geometry(pic.epoch);

  core::SplitResult result;
  std::vector<SpMsg> sp_msgs(static_cast<size_t>(tiles));
  {
    PDW_TRACE_SPAN(obs::span::kSplitPic, topo_.splitter(s), i);
    WallTimer t;
    result = splitters_[size_t(s)]->split(pic.coded, i, egeo);
    if (result.status.ok()) {
      // Serializing SPs and MEIs into wire messages is splitter work.
      for (int d = 0; d < tiles; ++d) {
        SpMsg& m = sp_msgs[size_t(d)];
        m.pic_index = i;
        m.tile = uint16_t(d);
        m.epoch = pic.epoch;
        m.subpicture = result.subpictures[size_t(d)].serialize_pooled();
        m.mei = std::move(result.mei[size_t(d)]);
        tr.sp_msg_bytes[size_t(d)] =
            sp_msg_wire_bytes(m.subpicture.size(), m.mei.size());
      }
    }
    tr.split_s = t.seconds();
  }
  tr.type = result.info.type;
  tr.split_stats = result.stats;
  if (result.status.ok() && sm_[size_t(s)].pictures_split)
    sm_[size_t(s)].pictures_split->add();
  if (sm_[size_t(s)].split_ns)
    sm_[size_t(s)].split_ns->observe(uint64_t(tr.split_s * 1e9));

  // Cost report for the planner — one per picture, empty vectors when the
  // picture was undecodable, so the root's completeness count holds.
  if (adaptive_) {
    CostReportMsg cr;
    cr.pic_index = i;
    cr.col_cost = result.stats.cost_col;
    cr.row_cost = result.stats.cost_row;
    deliver(topo_.splitter(s), Outgoing{topo_.root(), true, pack(cr)});
  }

  PDW_CHECK(sn.prev_acked(i));
  if (!result.status.ok()) {
    // Undecodable headers: nobody can split or decode the picture. The skip
    // broadcast keeps the one-emission-per-slot display invariant.
    for (const Outgoing& o : sn.skip_picture(i)) deliver(topo_.splitter(s), o);
  } else {
    PDW_TRACE_SPAN(obs::span::kRouteSp, topo_.splitter(s), i);
    for (const SplitterNode::SpRoute& rt : sn.routes(i)) {
      if (sm_[size_t(s)].sp_bytes_sent)
        sm_[size_t(s)].sp_bytes_sent->add(tr.sp_msg_bytes[size_t(rt.tile)]);
      deliver_sp(topo_.splitter(s), rt.dst_node,
                 std::move(sp_msgs[size_t(rt.tile)]));
    }
  }

  // Serve phase, in Table 3 order: every tile receives its sub-picture,
  // acks it (ANID-redirected, on receipt), executes its SEND instructions
  // and the halo exchanges flow, all before any decode starts (in the real
  // system the ack protocol guarantees reference data is already decoded).
  for (int d = 0; d < tiles; ++d) {
    DecoderHost& h = *decoders_[size_t(d)];
    const DecoderNode::SpState st = h.node.poll_sp(d, i);
    PDW_CHECK(st != DecoderNode::SpState::kPending);  // the bus never lags
    {
      PDW_TRACE_SPAN(obs::span::kAckPic, topo_.decoder(d), i);
      deliver(topo_.decoder(d), h.node.ack_picture(i));
    }
    if (st == DecoderNode::SpState::kSkipped) continue;
    core::TileDecoder& dec = h.dec(d, egeo, root_.stream_info());
    const SpMsg& sp = h.node.sp(d);
    std::map<int, ExchangeMsg> out;  // by destination tile
    PDW_TRACE_SPAN(obs::span::kServeSp, topo_.decoder(d), i);
    WallTimer t;
    for (const core::MeiInstruction& instr : sp.mei) {
      if (instr.op == core::MeiOp::kConceal) {
        dec.stage_conceal(instr);
        continue;
      }
      if (instr.op != core::MeiOp::kSend) continue;
      ExchangeEntry e;
      e.px = dec.extract_for_send(result.info, instr);
      e.instr = instr;
      e.instr.op = core::MeiOp::kRecv;
      e.instr.peer = uint16_t(d);
      ExchangeMsg& m = out[int(instr.peer)];
      if (m.entries.empty()) {
        m.pic_index = i;
        m.src_tile = uint16_t(d);
        m.dst_tile = instr.peer;
      }
      m.entries.push_back(std::move(e));
    }
    for (auto& [peer, m] : out) {
      const DecoderNode::ExchangeRoute rt = h.node.route_exchange(peer, i);
      PDW_CHECK(rt.kind == DecoderNode::ExchangeRoute::Kind::kRemote);
      tr.exchange_bytes.add(d, peer,
                            m.entries.size() * kExchangeEntryWireBytes);
      if (dm_[size_t(d)].exchange_bytes_sent)
        dm_[size_t(d)].exchange_bytes_sent->add(
            exchange_msg_wire_bytes(m.entries.size()));
      deliver_exchange(topo_.decoder(d), rt.dst_node, std::move(m));
    }
    tr.serve_s[size_t(d)] = t.seconds();
    if (dm_[size_t(d)].serve_ns)
      dm_[size_t(d)].serve_ns->observe(uint64_t(tr.serve_s[size_t(d)] * 1e9));
  }

  // Decode phase.
  for (int d = 0; d < tiles; ++d) {
    DecoderHost& h = *decoders_[size_t(d)];
    core::TileDecoder& dec = h.dec(d, egeo, root_.stream_info());
    const auto display = [&](const mpeg2::TileFrame& tf,
                             const core::TileDisplayInfo& info) {
      if (on_display) on_display(d, tf, info);
    };
    if (h.node.skipped(d)) {
      dec.skip_picture(i, display);
      if (dm_[size_t(d)].pictures_skipped)
        dm_[size_t(d)].pictures_skipped->add();
      continue;
    }
    PDW_CHECK(h.node.have_sp(d));
    PDW_CHECK(h.node.halos_complete(d, i));
    for (const ExchangeMsg& m : h.node.take_exchanges(d, i)) {
      if (dm_[size_t(d)].exchange_bytes_recv)
        dm_[size_t(d)].exchange_bytes_recv->add(
            exchange_msg_wire_bytes(m.entries.size()));
      for (const ExchangeEntry& e : m.entries)
        dec.add_halo_mb(e.instr, e.px, e.tainted);
    }
    PDW_TRACE_SPAN(obs::span::kDecodeSp, topo_.decoder(d), i);
    WallTimer t;
    const core::SubPicture sub =
        core::SubPicture::deserialize(h.node.sp(d).subpicture);
    dec.decode(sub, display);
    tr.decode_s[size_t(d)] = t.seconds();
    tr.halo_mbs[size_t(d)] = int(dec.halo_mbs_last_picture());
    if (dm_[size_t(d)].pictures_decoded) dm_[size_t(d)].pictures_decoded->add();
    if (dm_[size_t(d)].decode_ns)
      dm_[size_t(d)].decode_ns->observe(uint64_t(tr.decode_s[size_t(d)] * 1e9));
    if (dm_[size_t(d)].concealed_mbs)
      dm_[size_t(d)].concealed_mbs->add(
          uint64_t(dec.concealed_mbs_last_picture()));
  }

  // Per-picture epilogue: buffer GC.
  for (int d = 0; d < tiles; ++d) decoders_[size_t(d)]->node.release_picture(i);

  if (on_trace) on_trace(tr);
}

void SerialStream::finish(const DisplayFn& on_display) {
  PDW_CHECK(!finished_);
  finished_ = true;
  for (const Outgoing& o : root_node_->end_of_stream())
    deliver(topo_.root(), o);
  for (int d = 0; d < topo_.tiles; ++d) {
    DecoderHost& h = *decoders_[size_t(d)];
    h.dec(d, table_.geometry(table_.latest_epoch()), root_.stream_info())
        .flush([&](const mpeg2::TileFrame& tf,
                   const core::TileDisplayInfo& info) {
          if (on_display) on_display(d, tf, info);
        });
    for (const Outgoing& o : h.node.finished())
      deliver(topo_.decoder(d), o);
  }
  PDW_CHECK(root_node_->all_reported());
}

}  // namespace pdw::proto
