// Threaded cluster pipeline tests: the full Table-3 protocol with real
// concurrency — bit-exactness against the serial decoder, in-order delivery
// (built into the pipeline as CHECKs), flow-control compliance (the fabric
// CHECK-fails on overruns), and traffic accounting invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <type_traits>

#include "core/hosts.h"
#include "core/lockstep.h"
#include "core/pipeline.h"
#include "core/socket_wall.h"
#include "enc/encoder.h"
#include "mpeg2/decoder.h"
#include "video/generator.h"
#include "wall/assembler.h"

namespace pdw {
namespace {

using core::ClusterPipeline;
using core::ClusterStats;
using core::TileDisplayInfo;
using mpeg2::Frame;

std::vector<uint8_t> make_stream(int w, int h, int frames) {
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 8;
  cfg.b_frames = 2;
  cfg.target_bpp = 0.4;
  const auto gen =
      video::make_scene(video::SceneKind::kMovingObjects, w, h, 21);
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, Frame* f) { gen->render(i, f); });
}

std::vector<Frame> serial_decode(const std::vector<uint8_t>& es) {
  std::vector<Frame> out;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const Frame& f, const mpeg2::DecodedPictureInfo&) {
    out.push_back(f);
  });
  return out;
}

struct ThreadedRun {
  std::vector<Frame> frames;
  ClusterStats stats;
};

ThreadedRun threaded_decode(const std::vector<uint8_t>& es,
                            const wall::TileGeometry& geo, int k,
                            bool socket = false) {
  struct Pending {
    std::unique_ptr<wall::WallAssembler> assembler;
    int tiles = 0;
  };
  std::map<int, Pending> pending;
  std::map<int, Frame> finished;

  ThreadedRun run;
  const core::TileDisplayFn on_display = [&](int tile,
                                             const mpeg2::TileFrame& tf,
                                             const TileDisplayInfo& info) {
    Pending& p = pending[info.display_index];
    if (!p.assembler) p.assembler = std::make_unique<wall::WallAssembler>(geo);
    p.assembler->add_tile(tile, tf);
    if (++p.tiles == geo.tiles()) {
      p.assembler->check_coverage();
      finished.emplace(info.display_index, p.assembler->frame());
      pending.erase(info.display_index);
    }
  };
  run.stats = socket ? core::run_socket_wall(geo, k, es, on_display)
                     : ClusterPipeline(geo, k, es).run(on_display);
  EXPECT_TRUE(pending.empty());
  int next = 0;
  while (finished.count(next)) {
    run.frames.push_back(std::move(finished.at(next)));
    finished.erase(next);
    ++next;
  }
  EXPECT_TRUE(finished.empty());
  return run;
}

class ThreadedPipeline : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ThreadedPipeline, BitExactAgainstSerial) {
  const auto [m, n, k] = GetParam();
  const int w = 256, h = 192;
  const auto es = make_stream(w, h, 9);
  wall::TileGeometry geo(w, h, m, n, 16);
  const auto serial = serial_decode(es);
  const auto run = threaded_decode(es, geo, k);
  ASSERT_EQ(run.frames.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const Frame a = wall::crop_frame(serial[i], w, h);
    const Frame b = wall::crop_frame(run.frames[i], w, h);
    ASSERT_EQ(a.y, b.y) << "frame " << i;
    ASSERT_EQ(a.cb, b.cb);
    ASSERT_EQ(a.cr, b.cr);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ThreadedPipeline,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 1, 1),
                                           std::make_tuple(2, 2, 2),
                                           std::make_tuple(3, 2, 3),
                                           std::make_tuple(2, 2, 5)),
                         [](const auto& info) {
                           return "m" + std::to_string(std::get<0>(info.param)) +
                                  "n" + std::to_string(std::get<1>(info.param)) +
                                  "k" + std::to_string(std::get<2>(info.param));
                         });

TEST(ThreadedPipelineStats, TrafficAccountingIsConserved) {
  // Every node's counters and traffic-matrix row come from that node's own
  // backend, so on either transport a row sums to the node's sent bytes.
  // Only the in-process fabric also conserves bytes end to end: a socket
  // receiver may shut down with datagrams still in flight.
  const int w = 256, h = 192;
  const auto es = make_stream(w, h, 6);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  for (const bool socket : {false, true}) {
    SCOPED_TRACE(socket ? "socket" : "in-process");
    const auto run = threaded_decode(es, geo, 2, socket);

    uint64_t sent = 0, recv = 0;
    for (const auto& c : run.stats.node_counters) {
      sent += c.sent_bytes;
      recv += c.recv_bytes;
    }
    EXPECT_GT(sent, 0u);
    if (!socket) EXPECT_EQ(sent, recv);

    const int nodes = run.stats.nodes;
    ASSERT_EQ(run.stats.node_counters.size(), size_t(nodes));
    for (int n = 0; n < nodes; ++n) {
      uint64_t row = 0, col = 0;
      for (int d = 0; d < nodes; ++d) {
        row += run.stats.traffic_matrix.at(n, d);
        col += run.stats.traffic_matrix.at(d, n);
      }
      EXPECT_EQ(row, run.stats.node_counters[size_t(n)].sent_bytes) << n;
      if (!socket)
        EXPECT_EQ(col, run.stats.node_counters[size_t(n)].recv_bytes) << n;
    }
  }
}

TEST(WallLauncher, RejectsFaultOptionsOfTheOtherTransport) {
  // A fault injector drives only the in-process fabric and impairment only
  // the socket path; either mismatch fails a PDW_CHECK before any thread
  // starts, so it surfaces as a plain exception on the caller's thread.
  const int w = 128, h = 96;
  const auto es = make_stream(w, h, 3);
  wall::TileGeometry geo(w, h, 2, 1, 0);
  const net::FaultInjector injector(1, net::FaultRates{.drop = 0.1});
  core::FtOptions faulted;
  faulted.injector = &injector;
  EXPECT_THROW(core::run_socket_wall(geo, 1, es, nullptr, faulted),
               InternalError);
  core::FtOptions impaired;
  impaired.impair.loss = 0.1;
  EXPECT_THROW(ClusterPipeline(geo, 1, es, impaired).run(nullptr),
               InternalError);
}

TEST(ThreadedPipelineStats, RootSendsOnlyToSplitters) {
  const int w = 256, h = 192;
  const auto es = make_stream(w, h, 6);
  wall::TileGeometry geo(w, h, 2, 1, 0);
  ClusterPipeline pipeline(geo, 2, es);
  const auto stats = pipeline.run(nullptr);
  // Root (node 0) must not send application traffic to decoders directly.
  // The reliable transport does ack each decoder's "finished" report with a
  // single header-only transport ack, so allow at most that.
  for (int t = 0; t < geo.tiles(); ++t) {
    const int d = pipeline.decoder_node(t);
    EXPECT_LE(stats.traffic_matrix.at(0, d),
              uint64_t(net::Message::kHeaderBytes));
  }
  // Both splitters carry picture traffic (round-robin balance).
  EXPECT_GT(stats.traffic_matrix.at(0, 1), 0u);
  EXPECT_GT(stats.traffic_matrix.at(0, 2), 0u);
}

TEST(ThreadedPipelineStats, SplitterSendOverheadIsModest) {
  // Paper §5.6: SPH headers make a splitter's send volume ~20% larger than
  // its receive volume at high resolutions (the relative overhead grows as
  // resolution shrinks, which the paper also notes). At DVD-class resolution
  // with a 2x2 wall the band is looser: >1x (headers always add something)
  // and well under 2x.
  const int w = 720, h = 480;
  const auto es = make_stream(w, h, 9);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  ClusterPipeline pipeline(geo, 1, es);
  const auto stats = pipeline.run(nullptr);
  const auto& s = stats.node_counters[1];  // the single splitter
  EXPECT_GT(s.sent_bytes, s.recv_bytes);
  // At this small frame size the fixed per-run SPH cost amortizes poorly
  // (short rows, few bits per macroblock), so allow up to 2.5x; the paper's
  // ~20% figure at ultra-high resolution is reproduced by the Figure 9
  // benchmark, not here.
  EXPECT_LT(double(s.sent_bytes), double(s.recv_bytes) * 2.5);
}

TEST(WallTeardown, LaunchersReturnPromptlyAfterTheLastDisplay) {
  // Teardown ends on events (decoder done-count, a wake of the root's
  // receive, drained fabrics, shutdown wakes), not on sleep or poll slices,
  // so both in-process launchers return within a few ms of the last tile.
  const int w = 256, h = 192;
  const auto es = make_stream(w, h, 6);
  wall::TileGeometry geo(w, h, 2, 1, 0);
  using Clock = std::chrono::steady_clock;
  for (const bool socket : {false, true}) {
    std::vector<double> gaps;
    for (int rep = 0; rep < 5; ++rep) {
      Clock::time_point last;
      const core::TileDisplayFn on_display =
          [&](int, const mpeg2::TileFrame&, const TileDisplayInfo&) {
            last = Clock::now();
          };
      const ClusterStats stats =
          socket ? core::run_socket_wall(geo, 1, es, on_display)
                 : ClusterPipeline(geo, 1, es).run(on_display);
      gaps.push_back(
          std::chrono::duration<double>(Clock::now() - last).count());
      EXPECT_EQ(stats.ft.transport.abandoned, 0u);
    }
    std::sort(gaps.begin(), gaps.end());
    EXPECT_LT(gaps[gaps.size() / 2], 0.008) << (socket ? "socket" : "threaded");
  }
}

// The launcher shuts the fabric down once every decoder is done, without
// waiting for splitters: a splitter still owed a picture or a lost ack must
// then return from run() instead of spinning on the shut-down endpoint.
TEST(WallTeardown, SplitterReturnsOnceTheFabricShutsDown) {
  const proto::Topology topo{1, 2};
  const wall::TileGeometry geo(64, 32, 2, 1, 0);
  net::Fabric fabric(topo.nodes());
  core::HostShared shared;
  shared.ep_stats.resize(size_t(topo.nodes()));
  obs::MetricsRegistry metrics;
  core::StreamInfo info;
  info.seq.width = geo.width();
  info.seq.height = geo.height();
  core::SplitterHost host(&fabric, &shared, topo, 0, net::ReliableConfig{},
                          geo, info, &metrics);
  fabric.shutdown();
  host.run();  // no picture and no end of stream will ever arrive
  EXPECT_EQ(shared.splitters_done.load(), 1);
}

// Table 3 order, sans-io: a decoder acks picture i once its sub-picture is
// resolved (ready or skipped), to the splitter owning picture i + 1 (ANID
// redirection), and the post-decode buffer GC emits nothing.
TEST(AckOrder, AckOnReceiptGoesToTheAnidSplitterAndReleaseEmitsNothing) {
  const proto::Topology topo{3, 2};
  proto::DecoderNode::Options opts;
  opts.total_pictures = 8;
  proto::DecoderNode node(topo, /*home_tile=*/0, opts);
  static_assert(std::is_void_v<decltype(node.release_picture(0))>);
  const auto sp = [](uint32_t pic) {
    proto::SpMsg m;
    m.pic_index = pic;
    m.tile = 0;
    return proto::AnyMsg(std::move(m));
  };

  // Nothing resolved yet: acking now would release the next picture early.
  EXPECT_THROW(node.ack_picture(0), InternalError);

  node.on_message(topo.splitter(0), sp(0), 0.0);
  for (uint32_t i = 0; i < 6; ++i) {
    // One picture of lookahead: picture i + 1 may already be buffered (a
    // skip on odd pictures) while picture i is acked and decoded.
    if ((i + 1) % 2 == 1) {
      proto::SkipBroadcast skip;
      skip.pic_index = i + 1;
      skip.tile = 0;
      node.on_message(topo.splitter(topo.splitter_for_picture(i + 1)), skip,
                      0.0);
    } else {
      node.on_message(topo.splitter(topo.splitter_for_picture(i + 1)),
                      sp(i + 1), 0.0);
    }
    EXPECT_EQ(node.poll_sp(0, i), i % 2 == 0
                                      ? proto::DecoderNode::SpState::kReady
                                      : proto::DecoderNode::SpState::kSkipped);
    const proto::Outgoing ack = node.ack_picture(i);
    EXPECT_EQ(ack.dst, topo.ack_target(i));
    EXPECT_EQ(ack.dst, topo.splitter(topo.splitter_for_picture(i + 1)));
    EXPECT_TRUE(ack.reliable);
    ASSERT_EQ(ack.msg.type, proto::MsgType::kGoAheadAck);
    proto::GoAheadAck decoded;
    ASSERT_TRUE(proto::decode(ack.msg.body.span(), &decoded));
    EXPECT_EQ(decoded.pic_index, i);

    node.release_picture(i);
    // The lookahead sub-picture survives the GC of picture i.
    EXPECT_EQ(node.pending_sps(), (i + 1) % 2 == 0 ? 1 : 0) << "picture " << i;
  }
}

// Table 3 order on the running wall: tile 0 acks picture p on receipt, so
// the splitter routes sub-picture p + 1 while tile 0 is still inside
// decode(p). The display callback (called from inside decode) holds tile 0
// until the splitter's sp_bytes_sent counter covers sub-picture p + 1; the
// cumulative per-picture sizes come from a lockstep run of the same stream
// (the engines' counters are equal, see test_parallel_equivalence). With the
// ack after decode that sub-picture is never sent while tile 0 is held, and
// the wait times out. One tile, so the display mutex the callback holds
// blocks no other decoder.
TEST(AckOrder, SplitterRoutesTheNextSubPictureWhileATileDecodes) {
  const int w = 256, h = 192;
  const auto es = make_stream(w, h, 6);
  const wall::TileGeometry geo(w, h, 1, 1, 0);

  std::vector<uint64_t> sp_bytes_through;  // cumulative through picture i
  obs::MetricsRegistry lockstep_reg;
  core::LockstepPipeline(geo, 1, es, &lockstep_reg)
      .run(nullptr, [&](const proto::PictureTrace& tr) {
        sp_bytes_through.push_back(
            (sp_bytes_through.empty() ? 0 : sp_bytes_through.back()) +
            tr.sp_msg_bytes[0]);
      });

  obs::MetricsRegistry reg;
  core::FtOptions ft;
  ft.metrics = &reg;
  ClusterPipeline pipeline(geo, 1, es, ft);
  const obs::Counter& decoded = reg.counter(
      obs::family::kPicturesDecoded, obs::Labels{pipeline.decoder_node(0), 0});
  const obs::Counter& sp_sent = reg.counter(
      obs::family::kSpBytesSent, obs::Labels{pipeline.splitter_node(0), 0});
  int held = -1;
  bool routed = false;
  pipeline.run([&](int, const mpeg2::TileFrame&, const TileDisplayInfo&) {
    if (held >= 0) return;
    held = int(decoded.value());  // pictures done: tile 0 is in decode(held)
    if (size_t(held) + 1 >= sp_bytes_through.size()) return;
    const uint64_t target = sp_bytes_through[size_t(held) + 1];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!(routed = sp_sent.value() >= target) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  ASSERT_GE(held, 0);
  ASSERT_LT(size_t(held) + 1, sp_bytes_through.size());
  EXPECT_TRUE(routed) << "sub-picture " << held + 1
                      << " was not routed while tile 0 decoded picture "
                      << held;
}

}  // namespace
}  // namespace pdw
