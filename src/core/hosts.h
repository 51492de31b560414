// Node hosts: the glue between the sans-io protocol machines (proto/nodes.h)
// and a concrete transport + compute. One host per node role pumps a
// net::ReliableEndpoint over any net::FabricBackend, feeds decoded wire
// messages to its state machine, transmits whatever the machine returns and
// runs the actual work (splitting, pixel extraction, tile decoding) when the
// machine says the inputs are complete. Every role ends the same way: it
// raises its done-count, then stays resident t-acking peers' retransmissions
// until its fabric shuts down.
//
// The hosts are built in one place, WallSetup::run_host (core/launch.h),
// for both ways a wall runs: the in-process launcher (one thread per node,
// over one shared Fabric or per-node SocketFabrics) and wall_node
// (examples/wall_node.cpp, one OS process per node — the paper's actual
// deployment shape). The protocol machines cannot tell these apart, which
// is what the ProtocolEquivalence suite proves.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/timing.h"
#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "core/tile_decoder.h"
#include "net/fabric.h"
#include "net/reliable.h"
#include "obs/instruments.h"
#include "proto/nodes.h"
#include "wall/geometry.h"
#include "wall/partition.h"

namespace pdw::core {

// One node-death recovery, as observed by the runtime.
struct RecoveryEvent {
  double detect_time_s = 0;  // root declared the node dead (since run start)
  int dead_tile = -1;
  int adopter_tile = -1;     // -1: degraded mode (tile frozen, not adopted)
  uint32_t resync_pic = 0;   // first closed-GOP I not yet dispatched
  double resync_time_s = 0;  // adopter decoded resync_pic (0 if never)
};

// Thread-safe display callback (called with an internal mutex held).
using TileDisplayFn = std::function<void(int tile, const mpeg2::TileFrame&,
                                         const TileDisplayInfo&)>;

// State the hosts of one wall share. In the in-process launcher every host
// points at the same instance; in the multi-process wall each process has
// its own (its accounting is merged externally).
struct HostShared {
  std::mutex mu;  // guards recoveries
  std::vector<RecoveryEvent> recoveries;
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> skipped{0};
  std::vector<net::ReliableStats> ep_stats;  // by node, written pre-join
  std::atomic<bool> root_stop{false};
  // Hosts done with their role's work, by role: the root once every
  // decoder reported and root_stop is up, a splitter once it consumed its
  // whole stream, a decoder once it finished its stream or was killed. Each
  // then stays resident t-acking peer retransmissions until fabric
  // shutdown, so a slow retransmit to an already-finished node is never
  // falsely abandoned.
  std::atomic<int> root_done{0};
  std::atomic<int> splitters_done{0};
  std::atomic<int> decoders_done{0};
  std::mutex acct_mu;  // guards acct
  proto::WireAccounting acct;

  // The done-count of `node`'s role.
  std::atomic<int>& done_count(const proto::Topology& topo, int node);
  // Count one host done on `counter` and wake every wait_done() caller.
  void mark_done(std::atomic<int>& counter);
  // Block until `counter` reaches n.
  void wait_done(const std::atomic<int>& counter, int n);

 private:
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

// --- Root host (Table 3, root) + health monitor ----------------------------

struct RootHost {
  net::FabricBackend& fabric;
  HostShared& shared;
  const WallTimer& timer;
  const RootSplitter& root;
  proto::Topology topo;
  net::ReliableEndpoint ep;
  proto::RootNode node;

  obs::RootInstruments inst;

  RootHost(net::FabricBackend* f, HostShared* sh, const WallTimer* t,
           const RootSplitter* r, const proto::Topology& tp,
           const net::ReliableConfig& rc, const proto::RootNode::Options& ro,
           std::vector<proto::PictureMeta> metas,
           obs::MetricsRegistry* metrics);

  void apply(proto::RootNode::Step step);
  void pump(double timeout);
  void run();
};

// --- Splitter host (Table 3, splitter) -------------------------------------

struct SplitterHost {
  net::FabricBackend& fabric;
  HostShared& shared;
  proto::Topology topo;
  int index;
  net::ReliableEndpoint ep;
  proto::SplitterNode node;
  MacroblockSplitter splitter;
  wall::PartitionTable table;  // epochs learned from the root's updates
  bool adaptive = false;       // emit a cost report after every split
  bool gone = false;  // fabric shut down or node fenced: stop every wait

  obs::SplitterInstruments inst;
  obs::Gauge* queue_depth = nullptr;

  SplitterHost(net::FabricBackend* f, HostShared* sh,
               const proto::Topology& tp, int s,
               const net::ReliableConfig& rc, const wall::TileGeometry& geo,
               const StreamInfo& info, obs::MetricsRegistry* metrics,
               bool adaptive_enabled = false);

  int self() const { return topo.splitter(index); }

  void apply(proto::SplitterNode::Step step);
  void handle(net::Message& m);
  void pump(double timeout);  // sets `gone` on shutdown or death
  void run();
};

// --- Decoder host (Table 3, decoder) ---------------------------------------

struct DecoderHost {
  net::FabricBackend& fabric;
  HostShared& shared;
  const WallTimer& timer;
  proto::Topology topo;
  int home_tile;
  const wall::TileGeometry& geo;
  const StreamInfo& info;
  const TileDisplayFn& on_display;
  std::mutex& display_mu;
  double heartbeat_interval_s;
  net::ReliableEndpoint ep;
  proto::DecoderNode node;
  wall::PartitionTable table;  // epochs learned from the root's updates
  std::map<int, std::unique_ptr<TileDecoder>> decs;  // by tile
  std::map<int, SubPicture> subs;  // current picture's sub-picture, by tile
  bool gone = false;  // killed (or fabric torn down) — exit silently

  obs::DecoderInstruments inst;
  obs::Gauge* queue_depth = nullptr;

  DecoderHost(net::FabricBackend* f, HostShared* sh, const WallTimer* t,
              const proto::Topology& tp, int tile,
              const net::ReliableConfig& rc, const wall::TileGeometry& g,
              const StreamInfo& si, const TileDisplayFn& display,
              std::mutex* dmu, const proto::DecoderNode::Options& dopts,
              obs::MetricsRegistry* metrics);

  int self() const { return topo.decoder(home_tile); }

  TileDecoder::DisplayFn display_fn(int tile);
  TileDecoder& dec(int tile);
  void apply(proto::DecoderNode::Step step);
  // Pump the transport once; returns false when this node is dead.
  bool pump(double timeout);
  // Phase 1 for one tile: resolve the sub-picture (ready or skipped), then,
  // after the picture's ack, execute its MEI SENDs.
  void receive(const proto::DecoderNode::OwnedTile& ot, uint32_t i);
  void serve(const proto::DecoderNode::OwnedTile& ot, uint32_t i);
  // Phase 2 for one tile: collect the halos it still expects, then decode.
  void work(const proto::DecoderNode::OwnedTile& ot, uint32_t i);
  void run(uint32_t total_pictures);
};

}  // namespace pdw::core
