#include "core/launch.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.h"
#include "mem/pool.h"

namespace pdw::core {

namespace {

void accumulate_transport(net::ReliableStats* into,
                          const net::ReliableStats& s) {
  into->sent += s.sent;
  into->retransmits += s.retransmits;
  into->crc_drops += s.crc_drops;
  into->dup_drops += s.dup_drops;
  into->reordered += s.reordered;
  into->abandoned += s.abandoned;
  into->no_credit += s.no_credit;
  into->holes += s.holes;
  into->delivered += s.delivered;
  into->rtt_samples += s.rtt_samples;
}

std::vector<proto::PictureMeta> picture_metas(const RootSplitter& root) {
  std::vector<proto::PictureMeta> metas(size_t(root.picture_count()));
  for (size_t i = 0; i < metas.size(); ++i)
    metas[i].has_gop_header = root.span(int(i)).has_gop_header;
  return metas;
}

// The orderly end of a wall whose hosts all run on `threads` of this
// process; `backends[n]` is node n's backend. Each step ends on the event
// it waits for:
//   1. every decoder counted itself done (finished or killed);
//   2. root_stop plus a wake of the root's receive ends the root's health
//      monitor loop, and the root counts itself done;
//   3. the tail of transport acks drains, within a 250 ms bound: real
//      sockets may lose some, and fault-delayed messages may never land;
//   4. every fabric shuts down, which releases every host's resident tail,
//      and the threads are joined.
void finish_wall(HostShared& shared, const proto::Topology& topo,
                 std::span<net::FabricBackend* const> backends,
                 std::vector<std::thread>& threads) {
  shared.wait_done(shared.decoders_done, topo.tiles);
  shared.root_stop.store(true);
  backends[size_t(topo.root())]->wake(topo.root());
  shared.wait_done(shared.root_done, 1);
  // The root consumed every finished notice; what remains in flight is the
  // tail of transport acks. Let it be consumed so shutdown discards nothing
  // (keeps traffic accounting conserved). Consuming at one node can queue
  // an ack at another, so repeat until one pass finds every fabric drained.
  std::vector<net::FabricBackend*> fabrics(backends.begin(), backends.end());
  std::sort(fabrics.begin(), fabrics.end());
  fabrics.erase(std::unique(fabrics.begin(), fabrics.end()), fabrics.end());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  auto remaining = [&] {
    return std::chrono::duration<double>(deadline -
                                         std::chrono::steady_clock::now())
        .count();
  };
  for (bool waited = true; waited && remaining() > 0;) {
    waited = false;
    for (net::FabricBackend* f : fabrics) {
      if (f->quiescent()) continue;
      waited = true;
      f->wait_quiescent(remaining());
    }
  }
  for (net::FabricBackend* f : fabrics) f->shutdown();
  for (std::thread& th : threads) th.join();
}

}  // namespace

// --- WallSetup --------------------------------------------------------------

WallSetup::WallSetup(const wall::TileGeometry& g, int k,
                     std::span<const uint8_t> es, const FtOptions& options)
    : geo(g),
      topo{k, g.tiles()},
      ft(options),
      root(es),
      metas(picture_metas(root)) {
  PDW_CHECK_GE(k, 1);
  const int n = topo.nodes();
  shared.ep_stats.resize(size_t(n));
  shared.acct.reset(n);
  if (ft.per_picture_exchange) shared.acct.per_picture_tiles = topo.tiles;
  // Prewarm the wire pool (the GM analog of pre-posting buffers): mint
  // every size class up to twice the largest coded picture so the steady
  // state never misses, whatever peaks thread scheduling produces. The
  // count covers the sub-picture classes, whose peak concurrency scales
  // with tiles (every in-flight picture fans out one body per tile);
  // prewarm itself caps the picture-sized classes by bytes.
  size_t max_pic = 0;
  for (int i = 0; i < root.picture_count(); ++i)
    max_pic = std::max(max_pic, root.picture(i).size());
  mem::BufferPool::wire().prewarm(max_pic * 2, 2 * n + topo.tiles + 8);
  timer.reset();
}

void WallSetup::post_credits(net::FabricBackend& fabric, int node) {
  if (node == topo.root()) return;
  fabric.post_receive(node);
  fabric.post_receive(node);
}

void WallSetup::run_host(int node, net::FabricBackend* fabric,
                         const TileDisplayFn& on_display) {
  const ProtocolConfig& cfg = ft.protocol;
  const uint32_t pictures = uint32_t(root.picture_count());
  if (node == topo.root()) {
    proto::RootNode::Options ro;
    ro.heartbeat_timeout_s = cfg.heartbeat_timeout_s;
    ro.recovery = ft.recovery;
    ro.adaptive = ft.adaptive;
    ro.adaptive.geo = &geo;
    RootHost host(fabric, &shared, &timer, &root, topo, cfg.reliable, ro,
                  metas, ft.metrics);
    host.run();
  } else if (!topo.is_decoder(node)) {
    SplitterHost host(fabric, &shared, topo, node - topo.splitter(0),
                      cfg.reliable, geo, root.stream_info(), ft.metrics,
                      ft.adaptive.enabled);
    host.run();
  } else {
    proto::DecoderNode::Options dopts;
    dopts.heartbeat_interval_s = cfg.heartbeat_interval_s;
    dopts.total_pictures = pictures;
    DecoderHost host(fabric, &shared, &timer, topo, topo.tile_of(node),
                     cfg.reliable, geo, root.stream_info(), on_display,
                     &display_mu, dopts, ft.metrics);
    host.run(pictures);
  }
}

ClusterStats WallSetup::stats(std::span<net::FabricBackend* const> backends) {
  const int n = topo.nodes();
  ClusterStats stats;
  stats.pictures = root.picture_count();
  stats.wall_seconds = timer.seconds();
  stats.fps = double(stats.pictures) / stats.wall_seconds;
  stats.nodes = n;
  // Traffic is counted once, at the sender: node src's row of its own
  // backend's matrix.
  stats.traffic_matrix.reset(n);
  for (int src = 0; src < n; ++src) {
    const TrafficMatrix local = backends[size_t(src)]->traffic_matrix();
    for (int dst = 0; dst < n; ++dst)
      stats.traffic_matrix.at(src, dst) = local.at(src, dst);
    stats.node_counters.push_back(backends[size_t(src)]->counters(src));
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
  // Control-plane overhead (heartbeat bytes) as a registry family, so a
  // live dashboard sees it without digging into WireAccounting.
  obs::registry_or_global(ft.metrics)
      .counter(obs::family::kControlBytes)
      .add(stats.wire.control.total());
  return stats;
}

// --- Telemetry and rendezvous -----------------------------------------------

std::unique_ptr<obs::TelemetryExporter> start_telemetry(
    const FtOptions& ft, const proto::Topology& topo,
    std::vector<uint16_t> hosted) {
  if (ft.telemetry_port == 0) return nullptr;
  obs::TelemetryExporterConfig cfg;
  cfg.collector = {net::kLoopbackIp, ft.telemetry_port};
  cfg.interval_s = ft.telemetry_interval_s;
  cfg.metrics = ft.metrics;
  cfg.k = uint16_t(topo.k);
  cfg.tiles = uint16_t(topo.tiles);
  cfg.nodes = uint16_t(topo.nodes());
  cfg.hosted = std::move(hosted);
  auto exporter = std::make_unique<obs::TelemetryExporter>(cfg);
  exporter->start();
  return exporter;
}

WallRendezvous::WallRendezvous(int nodes, uint16_t port,
                               const net::ImpairConfig& impair,
                               double timeout_s)
    : server_(nodes, port) {
  if (impair.any())
    server_.set_map_transform(
        [this, impair](const std::vector<net::Endpoint>& real) {
          proxy_ = std::make_unique<net::ImpairProxy>(real, impair);
          return proxy_->proxied();
        });
  net::RendezvousConfig cfg;
  cfg.timeout_s = timeout_s;
  server_.serve_async(cfg);
}

bool join_wall(net::SocketFabric& fabric, net::Endpoint server, int nodes,
               double timeout_s) {
  net::RendezvousConfig cfg;
  cfg.timeout_s = timeout_s;
  std::vector<net::Endpoint> peers;
  if (net::rendezvous_join(server, fabric.self(), fabric.local_endpoint(),
                           nodes, &peers, cfg) != net::RendezvousStatus::kOk)
    return false;
  fabric.set_peers(std::move(peers));
  return true;
}

// --- The launcher -----------------------------------------------------------

ClusterStats run_wall(const wall::TileGeometry& geo, int k,
                      std::span<const uint8_t> es,
                      const TileDisplayFn& on_display, const FtOptions& ft,
                      Transport transport) {
  const bool socket = transport == Transport::kSocket;
  PDW_CHECK(!socket || ft.injector == nullptr)
      << " a FaultInjector faults the in-process fabric only; impair a "
         "socket wall through FtOptions::impair";
  PDW_CHECK(socket || !ft.impair.any())
      << " impairment needs the socket transport; fault an in-process wall "
         "through FtOptions::injector";
  WallSetup w(geo, k, es, ft);
  const int n = w.topo.nodes();

  std::vector<uint16_t> all_nodes;
  for (int node = 0; node < n; ++node) all_nodes.push_back(uint16_t(node));
  std::unique_ptr<obs::TelemetryExporter> telemetry =
      start_telemetry(ft, w.topo, std::move(all_nodes));

  // The one difference between the transports: where messages go. The
  // in-process wall has one fabric, the socket wall one per node and a
  // rendezvous; either way backends[n] is node n's.
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<net::SocketFabric>> sockets;
  std::unique_ptr<WallRendezvous> rv;
  std::vector<net::FabricBackend*> backends;
  if (socket) {
    rv = std::make_unique<WallRendezvous>(n, 0, ft.impair);
    net::SocketFabricConfig cfg;
    cfg.metrics = ft.metrics;
    for (int node = 0; node < n; ++node) {
      sockets.push_back(std::make_unique<net::SocketFabric>(node, n, cfg));
      backends.push_back(sockets.back().get());
    }
  } else {
    fabric = std::make_unique<net::Fabric>(n);
    if (ft.injector) fabric->set_fault_injector(ft.injector);
    backends.assign(size_t(n), fabric.get());
  }
  for (int node = 0; node < n; ++node)
    w.post_credits(*backends[size_t(node)], node);

  std::vector<std::thread> threads;
  for (int node = 0; node < n; ++node)
    threads.emplace_back([&, node] {
      if (rv)
        PDW_CHECK(join_wall(*sockets[size_t(node)], rv->endpoint(), n))
            << " node " << node << " rendezvous timeout";
      w.run_host(node, backends[size_t(node)], on_display);
    });
  finish_wall(w.shared, w.topo, backends, threads);
  if (rv) {
    PDW_CHECK(rv->result() == net::RendezvousStatus::kOk)
        << " rendezvous listener timed out";
    rv.reset();  // stops the impairment proxy
  }
  if (telemetry) telemetry->stop();  // final flush + Bye, after all spans
  return w.stats(backends);
}

}  // namespace pdw::core
