#include "core/socket_wall.h"

#include <algorithm>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/timing.h"
#include "core/hosts.h"
#include "core/root_splitter.h"
#include "mem/pool.h"
#include "net/rendezvous.h"
#include "net/socket_fabric.h"
#include "obs/telemetry.h"

namespace pdw::core {

ClusterStats run_socket_wall(const wall::TileGeometry& geo, int k,
                             std::span<const uint8_t> es,
                             const TileDisplayFn& on_display,
                             SocketWallOptions opts) {
  PDW_CHECK_GE(k, 1);
  const int tiles = geo.tiles();
  const proto::Topology topo{k, tiles};
  const int n = topo.nodes();

  RootSplitter root(es);
  const int total_pictures = root.picture_count();
  const ProtocolConfig cfg = opts.protocol;
  std::mutex display_mu;
  HostShared shared;
  shared.ep_stats.resize(size_t(n));
  shared.acct.reset(n);
  if (opts.per_picture_exchange) shared.acct.per_picture_tiles = tiles;

  {
    size_t max_pic = 0;
    for (int i = 0; i < total_pictures; ++i)
      max_pic = std::max(max_pic, root.picture(i).size());
    mem::BufferPool::wire().prewarm(max_pic * 2, 2 * n + tiles + 8);
  }

  std::vector<proto::PictureMeta> metas(static_cast<size_t>(total_pictures));
  for (int i = 0; i < total_pictures; ++i)
    metas[size_t(i)].has_gop_header = root.span(i).has_gop_header;

  // Telemetry sideband: this process hosts every node, so one exporter
  // announces them all and ships the shared registry + tracer.
  std::unique_ptr<obs::TelemetryExporter> telemetry;
  if (opts.telemetry_port != 0) {
    obs::TelemetryExporterConfig tcfg;
    tcfg.collector = {obs::kTelemetryLoopbackIp, opts.telemetry_port};
    tcfg.interval_s = opts.telemetry_interval_s;
    tcfg.metrics = opts.metrics;
    tcfg.k = uint16_t(k);
    tcfg.tiles = uint16_t(tiles);
    tcfg.nodes = uint16_t(n);
    for (int node = 0; node < n; ++node)
      tcfg.hosted.push_back(uint16_t(node));
    telemetry = std::make_unique<obs::TelemetryExporter>(tcfg);
    telemetry->start();
  }

  // Every node gets its own socket fabric; the rendezvous listener hands
  // out the endpoint map exactly as it would across machines.
  net::RendezvousServer rv(n);
  net::RendezvousConfig rv_cfg;
  rv_cfg.timeout_s = opts.rendezvous_timeout_s;
  rv.serve_async(rv_cfg);

  std::vector<std::unique_ptr<net::SocketFabric>> fabrics;
  net::SocketFabricConfig fab_cfg;
  fab_cfg.metrics = opts.metrics;
  for (int node = 0; node < n; ++node)
    fabrics.push_back(
        std::make_unique<net::SocketFabric>(node, n, fab_cfg));
  // Post every bulk receiver's two buffers before any thread starts, as the
  // threaded pipeline does — a credit is local receiver state, and posting
  // early keeps the root's first dispatch from burning retransmit budget
  // while a slowly starting receiver would otherwise sit creditless.
  for (int s = 0; s < k; ++s) {
    fabrics[size_t(topo.splitter(s))]->post_receive(topo.splitter(s));
    fabrics[size_t(topo.splitter(s))]->post_receive(topo.splitter(s));
  }
  for (int t = 0; t < tiles; ++t) {
    fabrics[size_t(topo.decoder(t))]->post_receive(topo.decoder(t));
    fabrics[size_t(topo.decoder(t))]->post_receive(topo.decoder(t));
  }

  // With impairment the fabrics must talk to the proxy's front addresses,
  // which exist only after every endpoint is known — so the threads first
  // rendezvous (publishing their endpoints), then wait for the final map.
  std::promise<std::vector<net::Endpoint>> map_promise;
  std::shared_future<std::vector<net::Endpoint>> map_future =
      map_promise.get_future().share();

  WallTimer timer;

  auto join_and_wire = [&](int node) {
    std::vector<net::Endpoint> peers;
    const net::RendezvousStatus st =
        net::rendezvous_join(rv.endpoint(), node,
                             fabrics[size_t(node)]->local_endpoint(), n,
                             &peers, rv_cfg);
    PDW_CHECK(st == net::RendezvousStatus::kOk)
        << " node " << node << " rendezvous timeout";
    fabrics[size_t(node)]->set_peers(map_future.get());
  };

  std::thread root_thread([&] {
    join_and_wire(topo.root());
    proto::RootNode::Options ro;
    ro.heartbeat_timeout_s = cfg.heartbeat_timeout_s;
    ro.recovery = opts.recovery;
    ro.adaptive = opts.adaptive;
    ro.adaptive.geo = &geo;
    RootHost host(fabrics[size_t(topo.root())].get(), &shared, &timer, &root,
                  topo, cfg.reliable, ro, metas, opts.metrics);
    host.run();
  });

  std::vector<std::thread> node_threads;
  for (int s = 0; s < k; ++s) {
    node_threads.emplace_back([&, s] {
      join_and_wire(topo.splitter(s));
      SplitterHost host(fabrics[size_t(topo.splitter(s))].get(), &shared,
                        topo, s, cfg.reliable, geo, root.stream_info(),
                        opts.metrics, opts.adaptive.enabled);
      host.run();
    });
  }
  for (int t = 0; t < tiles; ++t) {
    node_threads.emplace_back([&, t] {
      join_and_wire(topo.decoder(t));
      proto::DecoderNode::Options dopts;
      dopts.heartbeat_interval_s = cfg.heartbeat_interval_s;
      dopts.total_pictures = uint32_t(total_pictures);
      DecoderHost host(fabrics[size_t(topo.decoder(t))].get(), &shared,
                       &timer, topo, t, cfg.reliable, geo,
                       root.stream_info(), on_display, &display_mu, dopts,
                       opts.metrics);
      host.run(uint32_t(total_pictures));
    });
  }

  // Publish the final peer map once rendezvous completes: the real
  // endpoints, or the impairment proxy's fronts standing in for them.
  PDW_CHECK(rv.result() == net::RendezvousStatus::kOk)
      << " rendezvous listener timed out";
  std::unique_ptr<net::ImpairProxy> proxy;
  if (opts.impair) {
    proxy = std::make_unique<net::ImpairProxy>(rv.map(), opts.impair_cfg);
    map_promise.set_value(proxy->proxied());
  } else {
    map_promise.set_value(rv.map());
  }

  std::vector<net::FabricBackend*> backends;
  for (const auto& f : fabrics) backends.push_back(f.get());
  finish_wall(shared, tiles, topo.root(), *fabrics[size_t(topo.root())],
              backends, root_thread, node_threads);
  if (proxy) proxy->stop();
  if (telemetry) telemetry->stop();  // final flush + Bye, after all spans

  ClusterStats stats;
  stats.pictures = total_pictures;
  stats.wall_seconds = timer.seconds();
  stats.fps = double(total_pictures) / stats.wall_seconds;
  stats.nodes = n;
  // Each fabric holds its node's local view; the global matrix takes every
  // node's send rows (counted once, at the sender).
  stats.traffic_matrix.reset(n);
  for (int src = 0; src < n; ++src) {
    const TrafficMatrix local = fabrics[size_t(src)]->traffic_matrix();
    for (int dst = 0; dst < n; ++dst)
      stats.traffic_matrix.at(src, dst) = local.at(src, dst);
    stats.node_counters.push_back(fabrics[size_t(src)]->counters(src));
  }
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
  obs::registry_or_global(opts.metrics)
      .counter(obs::family::kControlBytes)
      .add(stats.wire.control.total());
  return stats;
}

}  // namespace pdw::core
