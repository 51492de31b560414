// Wall benchmark program: plays one seeded 1920x1088 stream through one
// decoder-wall workload for a fixed time and prints the end-to-end metrics
// (or, with --trace 1, the per-layer ones) as one JSON line.
//
//   wall_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--cache-dir <dir>] [--trace-out <file.json>]
//
// A run: generate (or load) the stream; decode it serially once for the
// bit-exact reference; warm the engine up with untimed sessions; play one
// untimed session that hashes every displayed tile against the reference;
// play timed sessions until --seconds have passed, timing the host-speed
// reference kernel after each; with --trace 1, then run the traced
// single-threaded layer pass and the transport ping-pong probes. See
// perfbench/README.md for the workloads and the metric map.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check.h"
#include "hostref.h"
#include "common/check.h"
#include "core/config.h"
#include "core/lockstep.h"
#include "core/pipeline.h"
#include "core/socket_wall.h"
#include "kernels/kernels.h"
#include "layers.h"
#include "mem/pool.h"
#include "mpeg2/decoder.h"
#include "net/fault.h"
#include "stats.h"
#include "video/catalog.h"

using namespace pdw;
using perfbench::WallTiming;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Two closed GOPs of 12: long enough for steady-state decode, short enough
// that generating a fresh stream per seed stays a few seconds.
constexpr int kFrames = 24;
constexpr int kCatalogId = 10;  // "nbc": 1920x1088, moving objects, 0.3 bpp
// Untimed warm-up: at least this many sessions and this much time. The
// first session of a process runs 25-45% slower than later ones.
constexpr int kWarmupSessions = 2;
constexpr double kWarmupSeconds = 1.0;
constexpr int kPingPongRounds = 200;

enum class Engine { kLockstep, kThreaded, kSocket };

struct Workload {
  const char* name;
  Engine engine;
  int m, n;     // wall shape (tiles across, down)
  double drop;  // in-process injected message drop rate
};

// Every workload fits the host's 4 cores: the lockstep engine is one
// thread, 1-1-(2,1) is root + splitter + two decoders.
constexpr Workload kWorkloads[] = {
    {"lockstep-1080p-4x4", Engine::kLockstep, 4, 4, 0.0},
    {"threaded-1080p-2x1", Engine::kThreaded, 2, 1, 0.0},
    {"socket-1080p-2x1", Engine::kSocket, 2, 1, 0.0},
    {"threaded-1080p-2x1-drop2", Engine::kThreaded, 2, 1, 0.02},
};

// Serial-decoder hashes of every tile rect, and of the same rect with one
// sample flipped (the negative control: the check must reject it).
struct Reference {
  std::vector<uint64_t> good, wrong;  // [picture * tiles + tile]
};

Reference serial_reference(const wall::TileGeometry& geo,
                           std::span<const uint8_t> es, int pictures) {
  const int tiles = geo.tiles();
  Reference ref;
  ref.good.assign(size_t(pictures * tiles), 0);
  ref.wrong.assign(size_t(pictures * tiles), 0);
  int index = 0;
  mpeg2::Mpeg2Decoder serial;
  serial.decode(es, [&](const mpeg2::Frame& f,
                        const mpeg2::DecodedPictureInfo&) {
    PDW_CHECK_LT(index, pictures);
    mpeg2::Frame flipped = f;
    for (int t = 0; t < tiles; ++t) {
      const wall::MbRect& r = geo.tile_mbs(t);
      const size_t at = size_t(index * tiles + t);
      ref.good[at] = perfbench::frame_rect_hash(f, r.x0, r.y0, r.x1, r.y1);
      const int x = r.x0 * 16, y = r.y0 * 16;
      flipped.y.set(x, y, uint8_t(f.y.at(x, y) ^ 1));
      ref.wrong[at] =
          perfbench::frame_rect_hash(flipped, r.x0, r.y0, r.x1, r.y1);
      flipped.y.set(x, y, f.y.at(x, y));
    }
    ++index;
  });
  PDW_CHECK_EQ(index, pictures);
  return ref;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

struct Session {
  double wall_s = 0;
  WallTiming timing;
  int pictures = 0;          // attempted
  int failed = 0;            // any tile missing, degraded or not bit-exact
  uint64_t degraded = 0;     // degraded tile frames
  uint64_t stray = 0;        // tile frames outside the picture range
  uint64_t mismatches = 0;   // hashed tiles that differ from the reference
  uint64_t wrong_passed = 0; // hashed tiles the negative control let pass
  double cpu_s = 0;          // process CPU time over the engine call
  double host_factor = 1;    // HostReference::factor() right after it
  core::ClusterStats stats;  // lockstep: only stats.wire is filled
};

// One engine call, from construction to return. Timed sessions only take
// timestamps in the display callback (it runs under the engine's display
// mutex); the check session also hashes every tile.
Session run_session(const Workload& w, const wall::TileGeometry& geo,
                    std::span<const uint8_t> es, int pictures,
                    uint64_t fault_seed, const Reference* check) {
  const int tiles = geo.tiles();
  Session s;
  s.pictures = pictures;
  std::vector<double> times(size_t(pictures * tiles), -1.0);
  std::vector<char> bad(size_t(pictures), 0);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const core::TileDisplayFn on_display =
      [&](int tile, const mpeg2::TileFrame& tf,
          const core::TileDisplayInfo& info) {
        const double now = seconds_since(t0);
        const int p = info.display_index;
        if (p < 0 || p >= pictures || tile < 0 || tile >= tiles) {
          ++s.stray;
          return;
        }
        const size_t at = size_t(p * tiles + tile);
        times[at] = now;
        if (info.degraded) {
          ++s.degraded;
          bad[size_t(p)] = 1;
        }
        if (check) {
          const uint64_t h = perfbench::tile_hash(tf);
          if (h != check->good[at]) {
            ++s.mismatches;
            bad[size_t(p)] = 1;
          }
          if (h == check->wrong[at]) ++s.wrong_passed;
        }
      };
  switch (w.engine) {
    case Engine::kLockstep: {
      core::LockstepPipeline lp(geo, 1, es);
      lp.run(on_display, nullptr);
      s.stats.wire = lp.accounting();
      break;
    }
    case Engine::kThreaded: {
      // A fresh drop schedule per session, so a run averages over many.
      const net::FaultInjector injector(fault_seed,
                                        net::FaultRates{.drop = w.drop});
      core::FtOptions ft;
      if (w.drop > 0) ft.injector = &injector;
      core::ClusterPipeline cp(geo, 1, es, ft);
      s.stats = cp.run(on_display);
      break;
    }
    case Engine::kSocket:
      s.stats = core::run_socket_wall(geo, 1, es, on_display);
      break;
  }
  s.wall_s = seconds_since(t0);
  s.cpu_s = cpu_seconds() - cpu0;
  s.timing = perfbench::wall_timing(times, tiles);
  for (int p = 0; p < pictures; ++p) {
    bool missing = false;
    for (int t = 0; t < tiles; ++t)
      missing = missing || times[size_t(p * tiles + t)] < 0;
    if (missing || bad[size_t(p)]) ++s.failed;
  }
  return s;
}

struct CpuStat {
  uint64_t total = 0, steal = 0;
};

CpuStat read_proc_stat() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuStat c;
  uint64_t v[8] = {};
  in >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  for (uint64_t x : v) c.total += x;
  c.steal = v[7];
  return c;
}

double loadavg_1m() {
  std::ifstream in("/proc/loadavg");
  double l = 0;
  in >> l;
  return l;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

// Per-layer figures of the traced pass (T rows of the metric map).
void layer_metrics(const perfbench::LayerPass& pass, double overhead_pct,
                   std::vector<Metric>* out, double* t_s, double* t_d,
                   double* mean_sp_bytes) {
  const double pics = pass.pictures;
  const int tiles = pass.tiles;
  std::map<std::string, double> wall, cpu;
  // Per picture, per tile: wire decode share + serve + decode (t_d).
  std::vector<double> tile_cost(size_t((pass.pictures + 1) * tiles), 0.0);
  std::vector<double> tile_decode(tile_cost.size(), 0.0);
  double covered = 0, scan_s = 0;
  for (const perfbench::Span& s : pass.spans) {
    const std::string_view layer = s.layer;
    const double d = s.t1 - s.t0;
    covered += d;
    wall[s.layer] += d;
    cpu[s.layer] += s.cpu_s;
    if (layer == perfbench::kLayerScan) scan_s = d;
    if (s.pic < 0) continue;
    if (layer == perfbench::kLayerDecodeWire) {
      for (int t = 0; t < tiles; ++t)
        tile_cost[size_t(s.pic * tiles + t)] += d / tiles;
    } else if (s.tile >= 0) {
      tile_cost[size_t(s.pic * tiles + s.tile)] += d;
      if (layer == perfbench::kLayerDecode)
        tile_decode[size_t(s.pic * tiles + s.tile)] += d;
    }
  }
  double max_decode = 0, max_cost = 0;
  for (int p = 0; p < pass.pictures; ++p) {
    double md = 0, mc = 0;
    for (int t = 0; t < tiles; ++t) {
      md = std::max(md, tile_decode[size_t(p * tiles + t)]);
      mc = std::max(mc, tile_cost[size_t(p * tiles + t)]);
    }
    max_decode += md;
    max_cost += mc;
  }
  using perfbench::kLayerCopy, perfbench::kLayerSplit,
      perfbench::kLayerEncode, perfbench::kLayerDecode,
      perfbench::kLayerServe;
  *t_s = (wall[kLayerSplit] + wall[kLayerEncode]) / pics;
  *t_d = max_cost / pics;
  *mean_sp_bytes = double(pass.sp_bytes) / (pics * tiles);
  const double tile_pics = pics * tiles;
  out->insert(
      out->end(),
      {{"root.scan_ms", scan_s * 1e3, "ms"},
       {"root.copy_us_per_picture", wall[kLayerCopy] / pics * 1e6, "us"},
       {"split.ms_per_picture", wall[kLayerSplit] / pics * 1e3, "ms"},
       {"split.cpu_ms_per_picture", cpu[kLayerSplit] / pics * 1e3, "ms"},
       {"split.sp_kb_per_picture", double(pass.sp_bytes) / pics / 1024.0,
        "KiB"},
       {"split.mei_per_picture", double(pass.mei) / pics, "count"},
       {"wire.encode_us_per_picture", wall[kLayerEncode] / pics * 1e6, "us"},
       {"wire.decode_us_per_picture",
        wall[perfbench::kLayerDecodeWire] / pics * 1e6, "us"},
       {"decode.ms_per_tile_picture", wall[kLayerDecode] / tile_pics * 1e3,
        "ms"},
       {"decode.cpu_ms_per_tile_picture", cpu[kLayerDecode] / tile_pics * 1e3,
        "ms"},
       {"decode.max_tile_ms_per_picture", max_decode / pics * 1e3, "ms"},
       {"halo.serve_us_per_picture", wall[kLayerServe] / pics * 1e6, "us"},
       {"halo.mbs_per_picture", double(pass.halo_mbs) / pics, "count"},
       {"trace.overhead_pct", overhead_pct, "%"},
       {"trace.unattributed_pct", (pass.wall_s - covered) / pass.wall_s * 100,
        "%"}});
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "wall_bench: %s\nusage: wall_bench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--cache-dir <dir>] "
               "[--trace-out <file>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, cache_dir, trace_out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") seconds = std::atof(val.c_str());
    else if (key == "--trace") trace = std::atoi(val.c_str());
    else if (key == "--cache-dir") cache_dir = val;
    else if (key == "--trace-out") trace_out = val;
    else return usage(("unknown argument " + key).c_str());
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (workload == c.name) w = &c;
  if (!w) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0) || (trace != 0 && trace != 1))
    return usage("--seconds must be > 0 and --trace 0 or 1");
  if (!cache_dir.empty()) setenv("PDW_CACHE_DIR", cache_dir.c_str(), 1);

  // Input: generated once per seed and cached; excluded from every metric.
  video::StreamSpec spec = video::stream_by_id(kCatalogId);
  spec.scene_seed = seed;
  const std::vector<uint8_t> es = video::load_stream(spec, kFrames);
  const std::span<const uint8_t> es_span(es);
  const int pictures = core::RootSplitter(es_span).picture_count();
  const wall::TileGeometry geo(spec.width, spec.height, w->m, w->n);
  // Fault schedules: session n of the run draws seed * 1000003 + n.
  uint64_t fault_seed = seed * 1000003u;

  const CpuStat host0 = read_proc_stat();
  const Reference ref = serial_reference(geo, es_span, pictures);

  // Warm-up, then the untimed bit-exact session.
  perfbench::HostReference host;
  std::vector<Session> warm;
  const auto warm0 = Clock::now();
  while (int(warm.size()) < kWarmupSessions ||
         seconds_since(warm0) < kWarmupSeconds) {
    warm.push_back(
        run_session(*w, geo, es_span, pictures, fault_seed++, nullptr));
    host.run();
  }
  const Session checked =
      run_session(*w, geo, es_span, pictures, fault_seed++, &ref);

  // Timed sessions: run for --seconds, and until the pooled interval and
  // skew samples carry an exact p95.
  std::vector<Session> timed;
  std::vector<double> intervals, skews;  // intervals at nominal host speed
  const mem::PoolStats pool0 = mem::BufferPool::wire().stats();
  const auto timed0 = Clock::now();
  while (seconds_since(timed0) < seconds ||
         !perfbench::exact_percentile(intervals, 0.95) ||
         !perfbench::exact_percentile(skews, 0.95)) {
    if (seconds_since(timed0) > 3 * seconds + 30) {
      std::fprintf(stderr, "wall_bench: too few samples for an exact p95\n");
      return 1;
    }
    timed.push_back(
        run_session(*w, geo, es_span, pictures, fault_seed++, nullptr));
    Session& s = timed.back();
    s.host_factor = host.factor();
    for (double gap : s.timing.intervals)
      intervals.push_back(gap / s.host_factor);
    skews.insert(skews.end(), s.timing.skews.begin(), s.timing.skews.end());
  }
  const mem::PoolStats pool1 = mem::BufferPool::wire().stats();

  // Failure accounting over every session that played the stream.
  int attempted = 0, failed = 0, complete = 0;
  uint64_t degraded = 0, stray = 0, skipped = 0;
  for (const auto* group : {&warm, &timed})
    for (const Session& s : *group) {
      attempted += s.pictures;
      failed += s.failed;
      degraded += s.degraded;
      stray += s.stray;
      skipped += s.stats.ft.skipped_pictures;
    }
  attempted += checked.pictures;
  failed += checked.failed;
  // Per timed session, raw and scaled to the nominal host speed.
  std::vector<double> fps, fps_raw, setup, setup_raw, cpu_ms, factors;
  for (const Session& s : timed) {
    const double h = s.host_factor;
    complete += s.timing.complete;
    fps_raw.push_back(s.timing.complete / s.wall_s);
    fps.push_back(fps_raw.back() * h);
    setup_raw.push_back(s.timing.first_complete_s);
    setup.push_back(setup_raw.back() / h);
    cpu_ms.push_back(s.cpu_s / std::max(1, s.timing.complete) * 1e3 / h);
    factors.push_back(h);
  }
  const bool correct = checked.mismatches == 0 && checked.failed == 0 &&
                       checked.wrong_passed == 0 && stray == 0;

  // Transport and wire counters summed over the timed sessions (S rows).
  double wire_bytes = 0, control_bytes = 0, sent_bytes = 0, sent_msgs = 0;
  net::ReliableStats rs;
  for (const Session& s : timed) {
    wire_bytes += double(s.stats.wire.traffic.total());
    control_bytes += double(s.stats.wire.control.total());
    for (const net::NodeCounters& c : s.stats.node_counters) {
      sent_bytes += double(c.sent_bytes);
      sent_msgs += double(c.sent_messages);
    }
    const net::ReliableStats& t = s.stats.ft.transport;
    rs.retransmits += t.retransmits;
    rs.abandoned += t.abandoned;
    rs.no_credit += t.no_credit;
    rs.reordered += t.reordered;
    rs.dup_drops += t.dup_drops;
  }

  const double fps_med = perfbench::median(fps);
  const double fps_raw_med = perfbench::median(fps_raw);
  const double cold_setup = warm.front().timing.first_complete_s;
  const auto [fps_lo, fps_hi] =
      std::minmax_element(fps_raw.begin(), fps_raw.end());

  std::vector<Metric> metrics;
  const double pics = complete > 0 ? complete : 1;
  if (trace == 0) {
    const double p50 = *perfbench::exact_percentile(intervals, 0.50);
    const double p95 = *perfbench::exact_percentile(intervals, 0.95);
    metrics = {
        {"fps", fps_med, "pictures/s"},
        {"frame_interval_p50_ms", p50 * 1e3, "ms"},
        {"frame_interval_p95_ms", p95 * 1e3, "ms"},
        {"cpu_ms_per_picture", perfbench::median(cpu_ms), "ms"},
        {"peak_rss_mb",
         peak_rss_mb() - double(host.resident_bytes()) / (1 << 20), "MiB"},
        {"setup_s", perfbench::median(setup), "s"},
    };
  } else {
    // Traced single-threaded layer pass on this workload's geometry, each
    // right after an untraced pass of the same calls; the median ratio of
    // the pairs gives the tracing overhead.
    double serial_s = 1e30;
    std::vector<double> overhead;
    perfbench::LayerPass traced;
    for (int r = 0; r < 3; ++r) {
      const double untraced_s =
          perfbench::run_layer_pass(geo, es_span, false).wall_s;
      perfbench::LayerPass p = perfbench::run_layer_pass(geo, es_span, true);
      PDW_CHECK_EQ(p.displayed, uint64_t(pictures * geo.tiles()));
      overhead.push_back((p.wall_s - untraced_s) / untraced_s * 100);
      if (r == 0 || p.wall_s < traced.wall_s) traced = std::move(p);
      serial_s =
          std::min(serial_s, perfbench::serial_seconds_per_picture(es_span));
    }
    if (!trace_out.empty() && !perfbench::write_chrome_trace(traced, trace_out))
      std::fprintf(stderr, "wall_bench: could not write %s\n",
                   trace_out.c_str());

    double t_s = 0, t_d = 0, mean_sp = 0;
    layer_metrics(traced, perfbench::median(overhead), &metrics, &t_s, &t_d,
                  &mean_sp);
    const double pred = core::predicted_fps(1, t_s, t_d);
    const CpuStat host1 = read_proc_stat();
    const double dtotal = double(host1.total - host0.total);
    const size_t sp = std::max<size_t>(64, size_t(mean_sp));
    metrics.insert(
        metrics.end(),
        {{"serial.ms_per_picture", serial_s * 1e3, "ms"},
         {"serial.fps", 1.0 / serial_s, "pictures/s"},
         {"model.t_s_ms", t_s * 1e3, "ms"},
         {"model.t_d_ms", t_d * 1e3, "ms"},
         {"model.k_star", double(core::choose_k(t_s, t_d)), "count"},
         {"model.predicted_fps", pred, "pictures/s"},
         {"model.fps_error_pct",
          std::fabs(pred - fps_raw_med) / fps_raw_med * 100, "%"},
         {"wire.kb_per_picture", wire_bytes / pics / 1024.0, "KiB"},
         {"wire.control_kb_per_picture", control_bytes / pics / 1024.0,
          "KiB"},
         {"net.retransmits_per_100_pictures",
          double(rs.retransmits) * 100 / pics, "count"},
         {"net.abandoned", double(rs.abandoned), "count"},
         {"net.sent_kb_per_picture", sent_bytes / pics / 1024.0, "KiB"},
         {"net.messages_per_picture", sent_msgs / pics, "count"},
         {"net.goodput_ratio", sent_bytes > 0 ? wire_bytes / sent_bytes : 0,
          "ratio"},
         {"net.no_credit_per_picture", double(rs.no_credit) / pics, "count"},
         {"net.reordered_per_picture", double(rs.reordered) / pics, "count"},
         {"net.dup_drops_per_picture", double(rs.dup_drops) / pics, "count"},
         {"net.socket_rtt_us_p50",
          perfbench::socket_rtt_us_p50(sp, kPingPongRounds), "us"},
         {"net.inproc_rtt_us_p50",
          perfbench::inproc_rtt_us_p50(sp, kPingPongRounds), "us"},
         {"pool.misses_per_picture", double(pool1.misses - pool0.misses) / pics,
          "count"},
         {"wall.tile_skew_p50_ms",
          *perfbench::exact_percentile(skews, 0.50) * 1e3, "ms"},
         {"wall.tile_skew_p95_ms",
          *perfbench::exact_percentile(skews, 0.95) * 1e3, "ms"},
         {"wall.cold_setup_s", cold_setup, "s"},
         {"pictures_failed_ratio", double(failed) / attempted, "ratio"},
         {"host.nproc", double(sysconf(_SC_NPROCESSORS_ONLN)), "count"},
         {"host.steal_pct",
          dtotal > 0 ? double(host1.steal - host0.steal) / dtotal * 100 : 0,
          "%"},
         {"host.loadavg_1m", loadavg_1m(), "count"},
         {"host.session_fps_spread_pct",
          (*fps_hi - *fps_lo) / fps_raw_med * 100, "%"},
         {"host.ref_factor", perfbench::median(factors), "ratio"},
         {"raw.fps", fps_raw_med, "pictures/s"},
         {"raw.setup_s", perfbench::median(setup_raw), "s"}});
  }

  utsname un{};
  uname(&un);
  std::printf(
      "host: nproc=%ld cpu=\"%s\" kernels=%s kernel=%s | workload=%s seed=%llu "
      "pictures=%d warmup=%zu timed=%zu degraded=%llu skipped=%llu stray=%llu "
      "mismatches=%llu wrong_ref_passed=%llu\n",
      sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(),
      kernels::level_name(kernels::active_level()), un.release, w->name,
      static_cast<unsigned long long>(seed), pictures, warm.size(),
      timed.size(), static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(skipped),
      static_cast<unsigned long long>(stray),
      static_cast<unsigned long long>(checked.mismatches),
      static_cast<unsigned long long>(checked.wrong_passed));

  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "wall_bench: %s is not finite\n", m.name);
      return 1;
    }
  std::ostringstream json;
  json.precision(15);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i)
    json << (i ? ", " : "") << '"' << metrics[i].name
         << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}
