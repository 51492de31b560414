// Serial hosting of the protocol state machines.
//
// SerialStream is one elementary stream's full 1-k-(m,n) pipeline —
// RootNode, k SplitterNodes, one DecoderNode per tile, plus the compute they
// orchestrate — advanced one picture at a time by a serial scheduler. Every
// message still flows through the proto wire layer and every protocol
// decision is made by the same state machines the threaded pipeline pumps,
// so the lockstep reference (core::LockstepPipeline wraps a SerialStream)
// cannot drift from the cluster runtime. It also times every operation on
// real data, producing the per-picture PictureTraces the discrete-event
// simulator replays.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "core/tile_decoder.h"
#include "obs/instruments.h"
#include "proto/nodes.h"
#include "wall/geometry.h"

namespace pdw::proto {

// Measured trace of one picture's journey through the pipeline (replayed by
// sim::simulate_cluster). core::PictureTrace aliases this.
struct PictureTrace {
  uint32_t pic_index = 0;
  mpeg2::PicType type = mpeg2::PicType::I;
  bool has_gop_header = false;  // picture starts a (closed) GOP — resync point
  uint32_t epoch = 0;           // partition epoch the picture was split under
  size_t picture_bytes = 0;  // root -> splitter message size
  double copy_s = 0;         // root: copy picture into the send buffer
  double split_s = 0;        // second-level: parse + build SPs and MEIs
  int splitter = 0;          // which second-level splitter handled it

  // Per tile decoder:
  std::vector<size_t> sp_msg_bytes;   // splitter -> decoder wire body size
  std::vector<double> decode_s;       // decode + display ("Work")
  std::vector<double> serve_s;        // executing SEND instructions ("Serve")
  std::vector<int> halo_mbs;          // remote macroblocks received
  TrafficMatrix exchange_bytes;       // tile x tile exchange wire bytes

  core::SplitStats split_stats;
};

class SerialStream {
 public:
  using DisplayFn = std::function<void(
      int tile, const mpeg2::TileFrame&, const core::TileDisplayInfo&)>;
  using TraceFn = std::function<void(const PictureTrace&)>;

  // `es` is borrowed and must outlive the stream. `metrics` selects the
  // registry telemetry lands in (nullptr: the process-global one).
  // `adaptive` turns on per-GOP partition rebalancing (the engine supplies
  // the base geometry itself; any `geo` set by the caller is ignored).
  SerialStream(const wall::TileGeometry& geo, int k,
               std::span<const uint8_t> es,
               obs::MetricsRegistry* metrics = nullptr,
               RootNode::AdaptivePartition adaptive = {});
  ~SerialStream();

  int picture_count() const;
  bool done() const { return int(cursor_) >= picture_count(); }

  // Advance one picture end to end: dispatch -> split -> serve/exchange ->
  // decode -> ack. Either callback may be null.
  void step(const DisplayFn& on_display, const TraceFn& on_trace);

  // End-of-stream protocol: flush every tile decoder and run the
  // finished-notice handshake. Call once, after the last step().
  void finish(const DisplayFn& on_display);

  const core::RootSplitter& root() const { return root_; }
  const WireAccounting& accounting() const { return acct_; }
  // Partition epochs this run installed (epoch 0 alone on a static wall).
  const wall::PartitionTable& partitions() const { return table_; }

 private:
  struct DecoderHost;

  void deliver(int src, const Outgoing& o);
  void deliver_sp(int src, int dst, SpMsg msg);
  void deliver_exchange(int src, int dst, ExchangeMsg msg);
  void dispatch(int src, int dst, AnyMsg msg);
  void install_partition(const PartitionUpdateMsg& pu);

  const wall::TileGeometry& geo_;
  wall::PartitionTable table_;
  bool adaptive_ = false;
  Topology topo_;
  core::RootSplitter root_;
  std::vector<std::unique_ptr<core::MacroblockSplitter>> splitters_;
  std::vector<std::unique_ptr<DecoderHost>> decoders_;
  std::unique_ptr<RootNode> root_node_;
  std::vector<std::unique_ptr<SplitterNode>> splitter_nodes_;
  WireAccounting acct_;
  uint32_t cursor_ = 0;
  bool finished_ = false;

  // Cached telemetry instruments, resolved once at construction.
  std::vector<obs::SplitterInstruments> sm_;  // by splitter index
  std::vector<obs::DecoderInstruments> dm_;   // by tile
};

}  // namespace pdw::proto
