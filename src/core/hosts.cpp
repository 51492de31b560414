#include "core/hosts.h"

#include <optional>
#include <utility>

#include "obs/flight.h"
#include "obs/trace.h"
#include "proto/wire.h"

namespace pdw::core {

using proto::AnyMsg;
using proto::Outgoing;

std::atomic<int>& HostShared::done_count(const proto::Topology& topo,
                                        int node) {
  if (node == topo.root()) return root_done;
  return topo.is_decoder(node) ? decoders_done : splitters_done;
}

void HostShared::mark_done(std::atomic<int>& counter) {
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    counter.fetch_add(1, std::memory_order_release);
  }
  done_cv_.notify_all();
}

void HostShared::wait_done(const std::atomic<int>& counter, int n) {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [&] {
    return counter.load(std::memory_order_acquire) >= n;
  });
}

namespace {

// Map a state-machine emission onto the transport and record it.
void emit(net::ReliableEndpoint& ep, HostShared& shared, int src, Outgoing o) {
  {
    std::lock_guard<std::mutex> lock(shared.acct_mu);
    shared.acct.record(src, o.dst, o.msg.type, o.msg.body.size());
  }
  obs::FlightRecorder::global().note_wire(true, src, o.dst, int(o.msg.type),
                                          o.msg.seq, o.msg.aux,
                                          o.msg.body.size());
  net::Message m;
  m.type = int(o.msg.type);
  m.seq = o.msg.seq;
  m.aux = o.msg.aux;
  m.stream = o.msg.stream;
  m.bulk = o.msg.bulk;
  m.payload = std::move(o.msg.body);
  if (o.reliable)
    ep.send(o.dst, std::move(m));
  else
    ep.send_unreliable(o.dst, std::move(m));
}

// Exchanges are built by the host (they carry extracted pixels), so they
// are recorded with their typed form to feed the per-picture matrices.
void emit_exchange(net::ReliableEndpoint& ep, HostShared& shared, int src,
                   int dst, const proto::ExchangeMsg& msg) {
  {
    std::lock_guard<std::mutex> lock(shared.acct_mu);
    shared.acct.record_exchange(src, dst, msg);
  }
  proto::Packed p = proto::pack(msg);
  obs::FlightRecorder::global().note_wire(true, src, dst, int(p.type), p.seq,
                                          p.aux, p.body.size());
  net::Message m;
  m.type = int(p.type);
  m.seq = p.seq;
  m.aux = p.aux;
  m.stream = p.stream;
  m.bulk = p.bulk;
  m.payload = std::move(p.body);
  ep.send(dst, std::move(m));
}

// Decode a received wire body. The transport CRC-verified it, so a decode
// failure is a local protocol bug, not damage — crash loudly.
AnyMsg decode_trusted(const net::Message& m) {
  std::optional<AnyMsg> msg = proto::decode_any(m.payload);
  PDW_CHECK(msg.has_value()) << " undecodable wire message type " << m.type;
  return std::move(*msg);
}

// The resident tail every role ends with: keep the endpoint receiving —
// t-acking peers' retransmissions and retransmitting its own unacked tail —
// until the fabric shuts down or fences this node. `each` sees every
// receive that is not one of those two.
template <class Each>
void stay_resident(net::ReliableEndpoint& ep, Each&& each) {
  while (true) {
    net::Message m;
    const auto st = ep.recv(&m, 0.02);
    if (st == net::ReliableEndpoint::Status::kShutdown ||
        st == net::ReliableEndpoint::Status::kDead)
      break;
    each(st, m);
    ep.take_abandoned();
  }
}

// The endpoint's transport instruments (retransmits, RTT histograms) must
// land in the same registry as the host's, not fall back to the global one.
net::ReliableConfig with_metrics(net::ReliableConfig rc,
                                 obs::MetricsRegistry* metrics) {
  if (!rc.metrics) rc.metrics = metrics;
  return rc;
}

}  // namespace

// --- RootHost --------------------------------------------------------------

RootHost::RootHost(net::FabricBackend* f, HostShared* sh, const WallTimer* t,
                   const RootSplitter* r, const proto::Topology& tp,
                   const net::ReliableConfig& rc,
                   const proto::RootNode::Options& ro,
                   std::vector<proto::PictureMeta> metas,
                   obs::MetricsRegistry* metrics)
    : fabric(*f),
      shared(*sh),
      timer(*t),
      root(*r),
      topo(tp),
      ep(f, tp.root(), with_metrics(rc, metrics)),
      node(tp, ro, std::move(metas), t->seconds()) {
  node.set_metrics(metrics);
  inst.resolve(obs::registry_or_global(metrics), tp.root());
}

void RootHost::apply(proto::RootNode::Step step) {
  for (const proto::RootNode::Death& d : step.deaths) {
    fabric.kill(d.node);  // fence: nothing more in or out of the corpse
    ep.forget_peer(d.node);
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.recoveries.push_back(RecoveryEvent{
        timer.seconds(), d.dead_tile, d.adopter_tile, d.resync_pic, 0});
  }
  if (!step.deaths.empty())
    obs::FlightRecorder::global().dump("death_declared");
  for (Outgoing& o : step.send) emit(ep, shared, topo.root(), std::move(o));
}

void RootHost::pump(double timeout) {
  net::Message m;
  if (ep.recv(&m, timeout) == net::ReliableEndpoint::Status::kMessage) {
    obs::FlightRecorder::global().note_wire(false, topo.root(), m.src, m.type,
                                            m.seq, m.aux, m.payload.size());
    apply(node.on_message(m.src, decode_trusted(m), timer.seconds()));
  }
  ep.take_abandoned();  // sends to nodes that died mid-broadcast
  // Hard transport errors (socket backend: ICMP port-unreachable — the
  // network telling us a peer process is gone). The in-process fabric never
  // reports any.
  for (int n : fabric.take_peer_errors())
    apply(node.on_transport_suspect(n, timer.seconds()));
  apply(node.on_tick(timer.seconds()));
}

void RootHost::run() {
  while (!node.stream_done()) {
    const uint32_t pic = node.cursor();
    const auto span = root.picture(int(pic));
    {
      PDW_TRACE_SPAN(obs::span::kGoAheadWait, topo.root(), pic);
      WallTimer wait;
      while (!node.may_dispatch()) pump(0.005);
      if (inst.go_ahead_wait_ns)
        inst.go_ahead_wait_ns->observe(uint64_t(wait.seconds() * 1e9));
    }
    std::vector<Outgoing> out;
    {
      // "Copy P to send buf" — the one copy: the ES span is packed straight
      // into a pooled wire body that the splitter's sub-pictures then view.
      // A rebalance decided here prepends its PartitionUpdate broadcast.
      PDW_TRACE_SPAN(obs::span::kCopyPic, topo.root(), pic);
      out = node.dispatch(span);
    }
    for (Outgoing& o : out) emit(ep, shared, topo.root(), std::move(o));
    apply(node.on_tick(timer.seconds()));
  }
  for (Outgoing& o : node.end_of_stream())
    emit(ep, shared, topo.root(), std::move(o));
  // Phase B: keep the health monitor (and our transport) alive until every
  // decoder thread has been joined — a decoder blocked on a dead peer is
  // unblocked by a death notice that only this loop can produce. Exit only
  // once every decoder is accounted for (finished or declared dead). The
  // pump timeout is the monitor's tick; the exit itself is prompt, because
  // the last finished notice wakes the receive and so does the wake() that
  // follows root_stop.
  while (!shared.root_stop.load() || !node.all_reported()) pump(0.01);
  shared.mark_done(shared.root_done);
  stay_resident(ep, [](auto, net::Message&) {});
  shared.ep_stats[size_t(topo.root())] = ep.stats();
}

// --- SplitterHost ----------------------------------------------------------

SplitterHost::SplitterHost(net::FabricBackend* f, HostShared* sh,
                           const proto::Topology& tp, int s,
                           const net::ReliableConfig& rc,
                           const wall::TileGeometry& geo,
                           const StreamInfo& info,
                           obs::MetricsRegistry* metrics,
                           bool adaptive_enabled)
    : fabric(*f),
      shared(*sh),
      topo(tp),
      index(s),
      ep(f, tp.splitter(s), with_metrics(rc, metrics)),
      node(tp, s),
      splitter(geo),
      table(geo),
      adaptive(adaptive_enabled) {
  splitter.set_stream_info(info);
  node.set_metrics(metrics);
  obs::MetricsRegistry& r = obs::registry_or_global(metrics);
  inst.resolve(r, self());
  queue_depth = &r.gauge(obs::family::kQueueDepth, obs::Labels{self(), 0});
}

void SplitterHost::apply(proto::SplitterNode::Step step) {
  for (int n : step.forget) ep.forget_peer(n);
  if (!step.forget.empty())
    obs::FlightRecorder::global().dump("death_notice");
  if (step.partition)
    table.install_wire(step.partition->epoch, step.partition->apply_from_pic,
                       step.partition->col_cuts_mb,
                       step.partition->row_cuts_mb);
  for (Outgoing& o : step.send) emit(ep, shared, self(), std::move(o));
}

void SplitterHost::handle(net::Message& m) {
  if (m.bulk) fabric.post_receive(self());  // recycle the receive buffer
  obs::FlightRecorder::global().note_wire(false, self(), m.src, m.type, m.seq,
                                          m.aux, m.payload.size());
  apply(node.on_message(m.src, decode_trusted(m), 0.0));
}

void SplitterHost::pump(double timeout) {
  net::Message m;
  const auto st = ep.recv(&m, timeout);
  gone = st == net::ReliableEndpoint::Status::kShutdown ||
         st == net::ReliableEndpoint::Status::kDead;
  if (st == net::ReliableEndpoint::Status::kMessage) handle(m);
  for (const net::AbandonedSend& ab : ep.take_abandoned())
    apply(node.on_send_failure(proto::SendFailure{
        ab.dst, proto::MsgType(ab.type), ab.seq, ab.aux}));
}

void SplitterHost::run() {
  while (true) {
    while (!gone && !node.has_picture() && !node.ended()) pump(0.02);
    queue_depth->set(node.queue_depth());
    if (gone || !node.has_picture()) break;
    Outgoing go_ahead;
    proto::PictureMsg pic = node.pop_picture(&go_ahead);
    emit(ep, shared, self(), std::move(go_ahead));
    const uint32_t i = pic.pic_index;

    // The picture is split against its stamped epoch's geometry. The update
    // installing that epoch was broadcast before the picture on the same
    // in-order link, so the table always already has it.
    PDW_CHECK(table.has_epoch(pic.epoch))
        << "picture " << i << " stamped with unknown epoch " << pic.epoch;
    SplitResult result;
    {
      PDW_TRACE_SPAN(obs::span::kSplitPic, self(), i);
      WallTimer split_timer;
      result = splitter.split(pic.coded, i, table.geometry(pic.epoch));
      if (inst.split_ns)
        inst.split_ns->observe(uint64_t(split_timer.seconds() * 1e9));
    }
    if (result.status.ok() && inst.pictures_split) inst.pictures_split->add();

    // Cost report for the planner — one per popped picture, empty vectors
    // when the split failed, so the root's completeness count holds.
    if (adaptive) {
      proto::CostReportMsg cr;
      cr.pic_index = i;
      cr.col_cost = result.stats.cost_col;
      cr.row_cost = result.stats.cost_row;
      emit(ep, shared, self(),
           Outgoing{topo.root(), true, proto::pack(cr)});
    }

    // ANID gating: wait for the previous picture's ack from every live
    // decoder (redirection made them land here).
    {
      PDW_TRACE_SPAN(obs::span::kAnidWait, self(), i);
      while (!gone && !node.prev_acked(i)) pump(0.02);
    }
    if (gone) break;

    if (!result.status.ok()) {
      // Undecodable headers: nobody can split or decode the picture.
      apply({node.skip_picture(i), {}});
      continue;
    }
    PDW_TRACE_SPAN(obs::span::kRouteSp, self(), i);
    for (const proto::SplitterNode::SpRoute& rt : node.routes(i)) {
      // Serialize the sub-picture straight into the pooled wire body — no
      // intermediate SpMsg byte vector.
      proto::Packed p =
          proto::pack_sp(i, uint16_t(rt.tile), /*stream=*/0,
                         result.subpictures[size_t(rt.tile)],
                         result.mei[size_t(rt.tile)], pic.epoch);
      if (inst.sp_bytes_sent) inst.sp_bytes_sent->add(p.body.size());
      emit(ep, shared, self(), Outgoing{rt.dst_node, true, std::move(p)});
    }
  }

  // Drain: ack decoders' final picture acks and absorb stragglers.
  shared.mark_done(shared.splitters_done);
  stay_resident(ep, [&](net::ReliableEndpoint::Status st, net::Message& m) {
    if (st == net::ReliableEndpoint::Status::kMessage) handle(m);
  });
  shared.ep_stats[size_t(self())] = ep.stats();
}

// --- DecoderHost -----------------------------------------------------------

DecoderHost::DecoderHost(net::FabricBackend* f, HostShared* sh,
                         const WallTimer* t, const proto::Topology& tp,
                         int tile, const net::ReliableConfig& rc,
                         const wall::TileGeometry& g, const StreamInfo& si,
                         const TileDisplayFn& display, std::mutex* dmu,
                         const proto::DecoderNode::Options& dopts,
                         obs::MetricsRegistry* metrics)
    : fabric(*f),
      shared(*sh),
      timer(*t),
      topo(tp),
      home_tile(tile),
      geo(g),
      info(si),
      on_display(display),
      display_mu(*dmu),
      heartbeat_interval_s(dopts.heartbeat_interval_s),
      ep(f, tp.decoder(tile), with_metrics(rc, metrics)),
      node(tp, tile, dopts),
      table(g) {
  node.set_metrics(metrics);
  obs::MetricsRegistry& r = obs::registry_or_global(metrics);
  inst.resolve(r, self());
  queue_depth = &r.gauge(obs::family::kQueueDepth, obs::Labels{self(), 0});
}

TileDecoder::DisplayFn DecoderHost::display_fn(int tile) {
  return TileDecoder::DisplayFn(
      [this, tile](const mpeg2::TileFrame& tf, const TileDisplayInfo& di) {
        if (di.degraded)
          shared.degraded.fetch_add(1, std::memory_order_relaxed);
        if (!on_display) return;
        std::lock_guard<std::mutex> lock(display_mu);
        on_display(tile, tf, di);
      });
}

TileDecoder& DecoderHost::dec(int tile) {
  auto& slot = decs[tile];
  if (!slot)
    slot = std::make_unique<TileDecoder>(geo, tile, info, HaloPolicy::kConceal);
  return *slot;
}

void DecoderHost::apply(proto::DecoderNode::Step step) {
  for (int n : step.forget) ep.forget_peer(n);
  if (!step.forget.empty())
    obs::FlightRecorder::global().dump("death_notice");
  if (step.partition)
    table.install_wire(step.partition->epoch, step.partition->apply_from_pic,
                       step.partition->col_cuts_mb,
                       step.partition->row_cuts_mb);
  if (step.adopt_tile.has_value()) {
    // Headroom for the adopted tile's second sub-picture stream.
    fabric.post_receive(self());
    fabric.post_receive(self());
  }
  for (Outgoing& o : step.send) emit(ep, shared, self(), std::move(o));
}

bool DecoderHost::pump(double timeout) {
  net::Message m;
  switch (ep.recv(&m, timeout)) {
    case net::ReliableEndpoint::Status::kDead:
    case net::ReliableEndpoint::Status::kShutdown:
      gone = true;
      return false;
    case net::ReliableEndpoint::Status::kTimeout:
      break;
    case net::ReliableEndpoint::Status::kMessage:
      if (m.bulk) fabric.post_receive(self());  // recycle the buffer
      obs::FlightRecorder::global().note_wire(false, self(), m.src, m.type,
                                              m.seq, m.aux, m.payload.size());
      apply(node.on_message(m.src, decode_trusted(m), timer.seconds()));
      break;
  }
  ep.take_abandoned();
  for (Outgoing& o : node.on_tick(timer.seconds()))
    emit(ep, shared, self(), std::move(o));  // heartbeat when due
  return true;
}

void DecoderHost::receive(const proto::DecoderNode::OwnedTile& ot,
                          uint32_t i) {
  PDW_TRACE_SPAN(obs::span::kRecvSp, self(), i);
  while (node.poll_sp(ot.tile, i) == proto::DecoderNode::SpState::kPending &&
         pump(heartbeat_interval_s)) {
  }
}

void DecoderHost::serve(const proto::DecoderNode::OwnedTile& ot, uint32_t i) {
  if (!node.have_sp(ot.tile)) return;  // skipped
  PDW_TRACE_SPAN(obs::span::kServeSp, self(), i);
  WallTimer serve_timer;
  TileDecoder& d = dec(ot.tile);
  const proto::SpMsg& sp = node.sp(ot.tile);
  // poll_sp held the sub-picture until its epoch's update arrived, so the
  // geometry is guaranteed present. Rebase before any staging or halo
  // delivery touches the decoder — rebase drops staged per-picture state.
  if (d.epoch() != sp.epoch) d.rebase(table.geometry(sp.epoch));
  subs[ot.tile] = SubPicture::deserialize(sp.subpicture);
  const PicInfo& pic_info = subs[ot.tile].info;

  std::map<int, proto::ExchangeMsg> outgoing;  // by destination tile
  for (const MeiInstruction& instr : sp.mei) {
    if (instr.op == MeiOp::kSend) {
      proto::ExchangeEntry e;
      e.px = d.try_extract_for_send(pic_info, instr, &e.tainted);
      e.instr = instr;
      e.instr.op = MeiOp::kRecv;
      e.instr.peer = uint16_t(ot.tile);
      proto::ExchangeMsg& m = outgoing[int(instr.peer)];
      if (m.entries.empty()) {
        m.pic_index = i;
        m.src_tile = uint16_t(ot.tile);
        m.dst_tile = instr.peer;
      }
      m.entries.push_back(std::move(e));
    } else if (instr.op == MeiOp::kConceal) {
      // Damaged-slice macroblock: stage for the decode phase (the peer
      // field carries fill bytes, not a tile).
      d.stage_conceal(instr);
    }
  }
  for (auto& [peer, m] : outgoing) {
    const proto::DecoderNode::ExchangeRoute rt = node.route_exchange(peer, i);
    switch (rt.kind) {
      case proto::DecoderNode::ExchangeRoute::Kind::kDrop:
        break;  // nobody serves that picture
      case proto::DecoderNode::ExchangeRoute::Kind::kLocal:
        // Tiles hosted on this very node exchange halos in memory.
        for (const proto::DecoderNode::OwnedTile& ot2 : node.owned()) {
          if (ot2.tile != peer || !node.tile_active(ot2, i)) continue;
          TileDecoder& d2 = dec(ot2.tile);
          // Same picture => same epoch: rebase the co-hosted tile *before*
          // handing it halos (its own serve would otherwise drop them).
          if (d2.epoch() != sp.epoch) d2.rebase(table.geometry(sp.epoch));
          for (const proto::ExchangeEntry& e : m.entries)
            d2.add_halo_mb(e.instr, e.px, e.tainted);
        }
        break;
      case proto::DecoderNode::ExchangeRoute::Kind::kRemote:
        if (inst.exchange_bytes_sent)
          inst.exchange_bytes_sent->add(
              proto::exchange_msg_wire_bytes(m.entries.size()));
        emit_exchange(ep, shared, self(), rt.dst_node, m);
        break;
    }
  }
  if (inst.serve_ns)
    inst.serve_ns->observe(uint64_t(serve_timer.seconds() * 1e9));
}

void DecoderHost::work(const proto::DecoderNode::OwnedTile& ot, uint32_t i) {
  if (!node.have_sp(ot.tile)) {
    if (node.skipped(ot.tile)) {
      shared.skipped.fetch_add(1, std::memory_order_relaxed);
      if (inst.pictures_skipped) inst.pictures_skipped->add();
      dec(ot.tile).skip_picture(i, display_fn(ot.tile));
    }
    return;
  }
  {
    PDW_TRACE_SPAN(obs::span::kWaitHalo, self(), i);
    while (!node.halos_complete(ot.tile, i) && pump(heartbeat_interval_s)) {
    }
  }
  if (gone) return;
  for (const proto::ExchangeMsg& m : node.take_exchanges(ot.tile, i)) {
    if (inst.exchange_bytes_recv)
      inst.exchange_bytes_recv->add(
          proto::exchange_msg_wire_bytes(m.entries.size()));
    for (const proto::ExchangeEntry& e : m.entries)
      dec(ot.tile).add_halo_mb(e.instr, e.px, e.tainted);
  }
  {
    PDW_TRACE_SPAN(obs::span::kDecodeSp, self(), i);
    WallTimer decode_timer;
    dec(ot.tile).decode(subs.at(ot.tile), display_fn(ot.tile));
    if (inst.decode_ns)
      inst.decode_ns->observe(uint64_t(decode_timer.seconds() * 1e9));
  }
  if (inst.pictures_decoded) inst.pictures_decoded->add();
  if (inst.concealed_mbs)
    inst.concealed_mbs->add(
        uint64_t(dec(ot.tile).concealed_mbs_last_picture()));
  if (ot.tile != home_tile && i == ot.active_from) {
    // First adopted picture decoded: stamp the recovery latency.
    std::lock_guard<std::mutex> lock(shared.mu);
    for (RecoveryEvent& ev : shared.recoveries)
      if (ev.dead_tile == ot.tile && ev.resync_time_s == 0)
        ev.resync_time_s = timer.seconds();
  }
}

void DecoderHost::run(uint32_t total_pictures) {
  for (uint32_t i = 0; i < total_pictures && !gone; ++i) {
    // Table 3 order: receive, ack, serve, wait, decode. Every owned tile
    // receives and serves before any decodes, so no owned tile's decode can
    // starve another tile hosted on this same node. Indexed loops:
    // adoption may grow owned() mid-picture.
    for (size_t x = 0; x < node.owned().size() && !gone; ++x) {
      const proto::DecoderNode::OwnedTile ot = node.owned()[x];
      if (node.tile_active(ot, i)) receive(ot, i);
    }
    if (gone) break;
    // The ack goes on receipt to the splitter owning the NEXT picture (ANID
    // redirection), which routes picture i + 1 while i decodes.
    {
      PDW_TRACE_SPAN(obs::span::kAckPic, self(), i);
      emit(ep, shared, self(), node.ack_picture(i));
    }
    for (size_t x = 0; x < node.owned().size(); ++x) {
      const proto::DecoderNode::OwnedTile ot = node.owned()[x];
      if (node.tile_active(ot, i)) serve(ot, i);
    }
    for (size_t x = 0; x < node.owned().size() && !gone; ++x) {
      const proto::DecoderNode::OwnedTile ot = node.owned()[x];
      if (node.tile_active(ot, i)) work(ot, i);
    }
    if (gone) break;
    node.release_picture(i);
    queue_depth->set(node.pending_sps());
  }

  if (!gone) {
    for (const proto::DecoderNode::OwnedTile& ot : node.owned())
      if (decs.count(ot.tile)) dec(ot.tile).flush(display_fn(ot.tile));
    apply({node.finished(), {}, std::nullopt});
  }
  shared.mark_done(shared.decoders_done);
  // Our own unacked tail is the last ack, finished notice and trailing
  // exchanges. Keep heartbeating until the finished notice is acked (the
  // root received it and exempted us from monitoring); then fall silent so
  // the fabric can reach quiescence for an orderly teardown.
  if (!gone)
    stay_resident(ep, [&](auto, net::Message&) {
      if (ep.unacked() > 0)
        for (Outgoing& o : node.on_tick(timer.seconds()))
          emit(ep, shared, self(), std::move(o));
    });
  shared.ep_stats[size_t(self())] = ep.stats();
}

}  // namespace pdw::core
