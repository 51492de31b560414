#include "core/pipeline.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "common/timing.h"
#include "core/hosts.h"
#include "core/root_splitter.h"
#include "mem/pool.h"

namespace pdw::core {

ClusterPipeline::ClusterPipeline(const wall::TileGeometry& geo, int k,
                                 std::span<const uint8_t> es, FtOptions ft)
    : geo_(geo), k_(k), topo_{k, geo.tiles()}, es_(es), ft_(std::move(ft)) {
  PDW_CHECK_GE(k, 1);
}

ClusterStats ClusterPipeline::run(const TileDisplayFn& on_display) {
  RootSplitter root(es_);
  const int tiles = geo_.tiles();
  const int total_pictures = root.picture_count();
  const ProtocolConfig cfg = ft_.protocol;
  net::Fabric fabric(nodes());
  if (ft_.injector) fabric.set_fault_injector(ft_.injector);
  std::mutex display_mu;
  HostShared shared;
  shared.ep_stats.resize(size_t(nodes()));
  shared.acct.reset(nodes());
  if (ft_.per_picture_exchange) shared.acct.per_picture_tiles = tiles;

  WallTimer timer;

  // Setup: prewarm the wire pool (the GM analog of pre-posting buffers) —
  // mint every size class up to twice the largest coded picture so the
  // steady state never misses, whatever peaks thread scheduling produces.
  // The count covers the sub-picture classes, whose peak concurrency
  // scales with tiles (every in-flight picture fans out one body per
  // tile); prewarm itself caps the picture-sized classes by bytes.
  {
    size_t max_pic = 0;
    for (int i = 0; i < total_pictures; ++i)
      max_pic = std::max(max_pic, root.picture(i).size());
    mem::BufferPool::wire().prewarm(max_pic * 2, 2 * nodes() + tiles + 8);
  }

  // Every bulk receiver posts its two receive buffers before the stream
  // starts (in GM this happens during connection establishment).
  for (int s = 0; s < k_; ++s) {
    fabric.post_receive(splitter_node(s));
    fabric.post_receive(splitter_node(s));
  }
  for (int t = 0; t < tiles; ++t) {
    fabric.post_receive(decoder_node(t));
    fabric.post_receive(decoder_node(t));
  }

  std::vector<proto::PictureMeta> metas(static_cast<size_t>(total_pictures));
  for (int i = 0; i < total_pictures; ++i)
    metas[size_t(i)].has_gop_header = root.span(i).has_gop_header;

  std::thread root_thread([&] {
    proto::RootNode::Options ro;
    ro.heartbeat_timeout_s = cfg.heartbeat_timeout_s;
    ro.recovery = ft_.recovery;
    ro.adaptive = ft_.adaptive;
    ro.adaptive.geo = &geo_;
    RootHost host(&fabric, &shared, &timer, &root, topo_, cfg.reliable, ro,
                  std::move(metas), ft_.metrics);
    host.run();
  });

  std::vector<std::thread> node_threads;
  for (int s = 0; s < k_; ++s) {
    node_threads.emplace_back([&, s] {
      SplitterHost host(&fabric, &shared, topo_, s, cfg.reliable, geo_,
                        root.stream_info(), ft_.metrics,
                        ft_.adaptive.enabled);
      host.run();
    });
  }
  for (int t = 0; t < tiles; ++t) {
    node_threads.emplace_back([&, t] {
      proto::DecoderNode::Options dopts;
      dopts.heartbeat_interval_s = cfg.heartbeat_interval_s;
      dopts.total_pictures = uint32_t(total_pictures);
      DecoderHost host(&fabric, &shared, &timer, topo_, t, cfg.reliable, geo_,
                       root.stream_info(), on_display, &display_mu, dopts,
                       ft_.metrics);
      host.run(uint32_t(total_pictures));
    });
  }

  net::FabricBackend* const fabrics[] = {&fabric};
  finish_wall(shared, tiles, topo_.root(), fabric, fabrics, root_thread,
              node_threads);

  ClusterStats stats;
  stats.pictures = total_pictures;
  stats.wall_seconds = timer.seconds();
  stats.fps = double(total_pictures) / stats.wall_seconds;
  stats.nodes = nodes();
  for (int nid = 0; nid < nodes(); ++nid)
    stats.node_counters.push_back(fabric.counters(nid));
  stats.traffic_matrix = fabric.traffic_matrix();
  for (const net::ReliableStats& s : shared.ep_stats)
    accumulate_transport(&stats.ft.transport, s);
  stats.ft.degraded_frames = shared.degraded.load();
  stats.ft.skipped_pictures = shared.skipped.load();
  {
    std::lock_guard<std::mutex> lock(shared.mu);
    stats.ft.recoveries = shared.recoveries;
  }
  {
    std::lock_guard<std::mutex> lock(shared.acct_mu);
    stats.wire = std::move(shared.acct);
  }
  // Control-plane overhead (heartbeat bytes) as a registry family, so a
  // live dashboard sees it without digging into WireAccounting.
  obs::registry_or_global(ft_.metrics)
      .counter(obs::family::kControlBytes)
      .add(stats.wire.control.total());
  return stats;
}

}  // namespace pdw::core
