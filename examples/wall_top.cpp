// wall_top: live "top"-style dashboard over the unified metrics registry.
//
// Synthesizes a short stream, runs the threaded 1-k-(m,n) cluster pipeline
// in a background thread, and — while the cluster is decoding — polls
// obs::MetricsRegistry::global().snapshot() every refresh interval and
// redraws a per-node table: pictures through each stage, live queue depths,
// exchange traffic, transport retransmits and heartbeats. This is exactly
// the live-observability path the bespoke stats structs could not provide:
// the registry is safe to snapshot mid-run, so the dashboard needs no
// cooperation from the pipeline. The full metrics report prints at the end.
//
// With --remote the dashboard hosts the cluster telemetry Collector
// (obs/collector.h) instead of running anything itself: every wall_node
// process started with --telemetry-port streams its metric deltas, spans and
// clock probes here, the table renders the *merged* cross-process snapshot
// plus a per-process sideband health table (clock offset, min RTT, sideband
// loss), and at exit the collector writes one merged Perfetto trace of the
// whole multi-process wall.
//
// With --partitions the dashboard runs the adaptive per-GOP rebalancer on a
// hot-region stream and renders the live wall::PartitionTable state straight
// from the registry gauges: current epoch and the column/row cut lines.
//
// Usage:
//   wall_top [m] [n] [k] [frames] [refresh_ms]
//   wall_top --remote PORT [--expect N] [--duration S] [--trace FILE]
//            [--refresh MS]
//   wall_top --partitions [frames] [refresh_ms]
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/text_table.h"
#include "core/pipeline.h"
#include "enc/encoder.h"
#include "obs/collector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "video/catalog.h"
#include "video/generator.h"

using namespace pdw;

namespace {

int64_t gauge_value(const obs::MetricsSnapshot& snap, std::string_view family,
                    obs::Labels labels) {
  for (const obs::MetricValue& v : snap.values)
    if (v.kind == obs::MetricKind::kGauge && v.family == family &&
        v.labels == labels)
      return v.gauge;
  return 0;
}

void draw(const obs::MetricsSnapshot& snap, int k, int tiles, bool ansi,
          double elapsed_s) {
  if (ansi) std::printf("\x1b[H\x1b[J");
  const uint64_t decoded =
      snap.counter_total(obs::family::kPicturesDecoded);
  std::printf("pdw wall_top — %.1fs — %llu tile-pictures decoded, "
              "%llu retransmits, %llu heartbeats\n\n",
              elapsed_s, (unsigned long long)decoded,
              (unsigned long long)snap.counter_total(obs::family::kRetransmits),
              (unsigned long long)
                  snap.counter_total(obs::family::kHeartbeatsSent));

  TextTable table({"node", "role", "pics", "queue", "sp KiB", "exch KiB s/r",
                   "acks", "retr"});
  const int nodes = 1 + k + tiles;
  for (int nid = 0; nid < nodes; ++nid) {
    const obs::Labels eng{nid, 0};   // engine counters
    const obs::Labels net{nid, -1};  // transport counters
    std::string role, pics, queue, sp, exch, acks;
    if (nid == 0) {
      role = "root";
      pics = format(
          "%llu",
          (unsigned long long)snap.counter_value(
              obs::family::kPicturesDispatched, eng));
      acks = format("%llu", (unsigned long long)snap.counter_value(
                                obs::family::kGoAheadsSeen, eng));
    } else if (nid <= k) {
      role = "splitter";
      pics = format("%llu", (unsigned long long)snap.counter_value(
                                obs::family::kPicturesSplit, eng));
      queue = format("%lld", (long long)gauge_value(
                                 snap, obs::family::kQueueDepth, eng));
      sp = format("%.1f", double(snap.counter_value(obs::family::kSpBytesSent,
                                                    eng)) /
                              1024.0);
      acks = format("%llu", (unsigned long long)snap.counter_value(
                                obs::family::kAcksRecv, eng));
    } else {
      role = "decoder";
      pics = format("%llu", (unsigned long long)snap.counter_value(
                                obs::family::kPicturesDecoded, eng));
      queue = format("%lld", (long long)gauge_value(
                                 snap, obs::family::kQueueDepth, eng));
      exch = format(
          "%.1f/%.1f",
          double(snap.counter_value(obs::family::kExchangeBytesSent, eng)) /
              1024.0,
          double(snap.counter_value(obs::family::kExchangeBytesRecv, eng)) /
              1024.0);
      acks = format("%llu", (unsigned long long)snap.counter_value(
                                obs::family::kAcksSent, eng));
    }
    const std::string retr =
        format("%llu", (unsigned long long)snap.counter_value(
                           obs::family::kRetransmits, net));
    table.add_row({format("%d", nid), role, pics, queue, sp, exch, acks,
                   retr});
  }
  table.print(stdout);

  // Buffer pools (process-wide: every node's wire bodies and picture planes
  // come from these). Hit rate below 100% after warm-up means the hot path
  // is malloc'ing; in-flight is the live pooled working set.
  const auto pool_row = [&](TextTable* t, const char* name, const char* hits_f,
                            const char* miss_f, const char* rec_f,
                            const char* flight_f) {
    const uint64_t hits = snap.counter_total(hits_f);
    const uint64_t misses = snap.counter_total(miss_f);
    const double rate =
        hits + misses ? 100.0 * double(hits) / double(hits + misses) : 0.0;
    t->add_row({name, format("%llu", (unsigned long long)hits),
                format("%llu", (unsigned long long)misses),
                format("%.1f%%", rate),
                format("%llu", (unsigned long long)snap.counter_total(rec_f)),
                format("%.1f", double(gauge_value(snap, flight_f, {})) /
                                   (1024.0 * 1024.0))});
  };
  TextTable pools({"pool", "hits", "misses", "hit rate", "recycles",
                   "in-flight MiB"});
  pool_row(&pools, "wire", obs::family::kPoolHits, obs::family::kPoolMisses,
           obs::family::kPoolRecycles, obs::family::kPoolBytesInFlight);
  pool_row(&pools, "surface", obs::family::kSurfacePoolHits,
           obs::family::kSurfacePoolMisses, obs::family::kSurfacePoolRecycles,
           obs::family::kSurfacePoolBytesInFlight);
  std::printf("\n");
  pools.print(stdout);
  std::fflush(stdout);
}

// --remote: host the telemetry collector; the wall runs elsewhere (other
// processes, other machines) and streams itself here.
int run_remote_mode(int argc, char** argv) {
  uint16_t port = 0;
  int expect = 0;
  double duration_s = 120.0;
  int refresh_ms = 200;
  std::string trace_path;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (i == 2 && a[0] != '-') {
      port = uint16_t(std::atoi(a.c_str()));
    } else if (a == "--expect") {
      if (const char* v = next()) expect = std::atoi(v);
    } else if (a == "--duration") {
      if (const char* v = next()) duration_s = std::atof(v);
    } else if (a == "--trace") {
      if (const char* v = next()) trace_path = v;
    } else if (a == "--refresh") {
      if (const char* v = next()) refresh_ms = std::atoi(v);
    } else {
      std::fprintf(stderr, "wall_top --remote PORT [--expect N] "
                           "[--duration S] [--trace FILE] [--refresh MS]\n");
      return 2;
    }
  }
  obs::CollectorConfig ccfg;
  ccfg.port = port;
  obs::Collector collector(ccfg);
  if (!collector.ok()) {
    std::fprintf(stderr, "wall_top: cannot bind collector port %u\n",
                 unsigned(port));
    return 1;
  }
  collector.start();
  std::printf("wall_top --remote: collecting on UDP port %u\n",
              unsigned(collector.endpoint().port));

  const bool ansi = isatty(fileno(stdout)) != 0;
  double elapsed = 0;
  bool complete = false;
  while (elapsed < duration_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
    elapsed += double(refresh_ms) / 1e3;
    const int k = collector.k(), tiles = collector.tiles();
    if (k > 0 && tiles > 0)
      draw(collector.merged_metrics(), k, tiles, ansi, elapsed);
    else if (ansi)
      std::printf("\x1b[H\x1b[Jwall_top --remote — %.1fs — waiting for the "
                  "first Hello...\n",
                  elapsed);

    TextTable procs({"token", "pid", "nodes", "offset us", "min-rtt us",
                     "dgrams", "bytes", "gaps", "state"});
    for (const obs::Collector::ProcessInfo& p : collector.processes()) {
      std::string nodes;
      for (size_t i = 0; i < p.nodes.size(); ++i)
        nodes += format("%s%d", i ? "," : "", p.nodes[i]);
      procs.add_row(
          {format("%08llx", (unsigned long long)(p.token & 0xFFFFFFFFull)),
           format("%u", p.os_pid), nodes,
           p.offset_valid ? format("%.1f", double(p.offset_ns) / 1e3)
                          : std::string("-"),
           p.offset_valid ? format("%.1f", double(p.min_rtt_ns) / 1e3)
                          : std::string("-"),
           format("%llu", (unsigned long long)p.datagrams),
           format("%llu", (unsigned long long)p.bytes),
           format("%llu", (unsigned long long)p.seq_gaps),
           p.bye ? "bye" : "live"});
    }
    std::printf("\n");
    procs.print(stdout);
    std::fflush(stdout);

    const int seen = int(collector.nodes_seen().size());
    const bool enough =
        expect > 0 ? seen >= expect : collector.all_nodes_seen();
    if (enough && collector.all_bye() && !collector.processes().empty()) {
      complete = true;
      break;
    }
  }
  collector.stop();

  const int seen = int(collector.nodes_seen().size());
  std::printf("\ncollector: %d nodes seen, %zu processes, %llu datagrams "
              "(%llu bytes), complete=%s\n",
              seen, collector.processes().size(),
              (unsigned long long)collector.datagrams_received(),
              (unsigned long long)collector.bytes_received(),
              complete ? "yes" : "no");
  if (!trace_path.empty()) {
    if (!collector.write_merged_trace(trace_path)) {
      std::fprintf(stderr, "wall_top: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("merged trace written to %s\n", trace_path.c_str());
  }
  return complete ? 0 : 1;
}

void draw_partitions(const obs::MetricsSnapshot& snap, int m, int n, int k,
                     int tiles, bool ansi, double elapsed_s) {
  if (ansi) std::printf("\x1b[H\x1b[J");
  const int64_t epoch =
      gauge_value(snap, obs::family::kPartitionEpoch, obs::Labels{-1, 0});
  std::printf("pdw wall_top — partitions — %.1fs — epoch %lld, %llu "
              "tile-pictures decoded\n\n",
              elapsed_s, (long long)epoch,
              (unsigned long long)
                  snap.counter_total(obs::family::kPicturesDecoded));
  TextTable cuts({"axis", "cut", "mb"});
  for (int i = 0; i < m - 1; ++i)
    cuts.add_row({"col", format("%d", i),
                  format("%lld", (long long)gauge_value(
                                     snap, obs::family::kPartitionColCutMb,
                                     obs::Labels{i, 0}))});
  for (int i = 0; i < n - 1; ++i)
    cuts.add_row({"row", format("%d", i),
                  format("%lld", (long long)gauge_value(
                                     snap, obs::family::kPartitionRowCutMb,
                                     obs::Labels{i, 0}))});
  cuts.print(stdout);
  std::printf("\n");
  draw(snap, k, tiles, /*ansi=*/false, elapsed_s);
}

// --partitions: adaptive rebalancing on a hot-region stream, with the live
// PartitionTable epoch and cut lines rendered from the registry gauges.
int run_partition_mode(int frames, int refresh_ms) {
  const int m = 4, n = 4, k = 2;
  const video::StreamSpec spec = video::skewed_stream_spec(0, 640, 480);
  const std::vector<uint8_t> es = video::load_stream(spec, frames);
  std::printf("stream: %s %dx%d, %d frames (hot region cx=%.2f cy=%.2f)\n",
              spec.name.c_str(), spec.width, spec.height, frames,
              double(spec.hot.cx), double(spec.hot.cy));

  wall::TileGeometry geo(spec.width, spec.height, m, n, /*overlap=*/40);
  core::FtOptions ft;
  ft.adaptive.enabled = true;
  ft.adaptive.gain_threshold = 0.02;
  core::ClusterPipeline pipeline(geo, k, es, ft);

  std::atomic<bool> done{false};
  core::ClusterStats stats;
  std::thread runner([&] {
    stats = pipeline.run(nullptr);
    done.store(true);
  });

  const bool ansi = isatty(fileno(stdout)) != 0;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  double elapsed = 0;
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
    elapsed += double(refresh_ms) / 1e3;
    draw_partitions(reg.snapshot(), m, n, k, geo.tiles(), ansi, elapsed);
  }
  runner.join();

  draw_partitions(reg.snapshot(), m, n, k, geo.tiles(), ansi, elapsed);
  std::printf("\nrun finished: %d pictures, %.2f s, %.1f fps, final epoch "
              "%lld\n",
              stats.pictures, stats.wall_seconds, stats.fps,
              (long long)gauge_value(reg.snapshot(),
                                     obs::family::kPartitionEpoch,
                                     obs::Labels{-1, 0}));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--remote") == 0)
    return run_remote_mode(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "--partitions") == 0) {
    const int frames = argc > 2 ? std::atoi(argv[2]) : 96;
    const int refresh_ms = argc > 3 ? std::atoi(argv[3]) : 200;
    return run_partition_mode(frames, refresh_ms);
  }
  if (argc > 1 && argv[1][0] == '-') {
    std::fprintf(stderr, "wall_top: unknown option %s\n", argv[1]);
    return 2;
  }
  const int m = argc > 1 ? std::atoi(argv[1]) : 2;
  const int n = argc > 2 ? std::atoi(argv[2]) : 2;
  const int k = argc > 3 ? std::atoi(argv[3]) : 2;
  const int frames = argc > 4 ? std::atoi(argv[4]) : 96;
  const int refresh_ms = argc > 5 ? std::atoi(argv[5]) : 200;

  const int width = 640, height = 480;
  enc::EncoderConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.target_bpp = 0.35;
  const auto scene =
      video::make_scene(video::SceneKind::kMovingObjects, width, height, 7);
  enc::Mpeg2Encoder encoder(cfg);
  const std::vector<uint8_t> es = encoder.encode(
      frames, [&](int i, mpeg2::Frame* f) { scene->render(i, f); });
  std::printf("encoded %d frames (%zu bytes); 1-%d-(%d,%d) wall\n", frames,
              es.size(), k, m, n);

  wall::TileGeometry geo(width, height, m, n, /*overlap=*/40);
  core::ClusterPipeline pipeline(geo, k, es);

  std::atomic<bool> done{false};
  core::ClusterStats stats;
  std::thread runner([&] {
    stats = pipeline.run(nullptr);
    done.store(true);
  });

  const bool ansi = isatty(fileno(stdout)) != 0;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  double elapsed = 0;
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
    elapsed += double(refresh_ms) / 1e3;
    draw(reg.snapshot(), k, geo.tiles(), ansi, elapsed);
  }
  runner.join();

  draw(reg.snapshot(), k, geo.tiles(), ansi, elapsed);
  std::printf("\nrun finished: %d pictures, %.2f s, %.1f fps\n\n",
              stats.pictures, stats.wall_seconds, stats.fps);
  obs::metrics_report(reg.snapshot(), stdout);
  return 0;
}
