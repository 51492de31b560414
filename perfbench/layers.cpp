#include "layers.h"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "common/check.h"
#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "core/tile_decoder.h"
#include "mem/bytes.h"
#include "mpeg2/decoder.h"
#include "net/fabric.h"
#include "net/socket_fabric.h"
#include "proto/wire.h"
#include "stats.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

// Records one span into `pass` on destruction; a null pass records nothing.
class SpanScope {
 public:
  SpanScope(LayerPass* pass, Clock::time_point origin, const char* layer,
            int pic = -1, int tile = -1)
      : pass_(pass), origin_(origin) {
    if (!pass_) return;
    span_.layer = layer;
    span_.pic = pic;
    span_.tile = tile;
    cpu0_ = thread_cpu_s();
    span_.t0 = seconds_since(origin_);
  }
  ~SpanScope() {
    if (!pass_) return;
    span_.t1 = seconds_since(origin_);
    span_.cpu_s = thread_cpu_s() - cpu0_;
    pass_->spans.push_back(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  LayerPass* pass_;
  Clock::time_point origin_;
  Span span_;
  double cpu0_ = 0;
};

}  // namespace

LayerPass run_layer_pass(const pdw::wall::TileGeometry& geo,
                         std::span<const uint8_t> es, bool traced) {
  using namespace pdw;
  LayerPass pass;
  LayerPass* rec = traced ? &pass : nullptr;
  const int tiles = geo.tiles();
  pass.tiles = tiles;
  const auto origin = Clock::now();

  std::optional<core::RootSplitter> root;
  {
    SpanScope s(rec, origin, kLayerScan);
    root.emplace(es);
  }
  const int pictures = root->picture_count();
  pass.pictures = pictures;
  pass.spans.reserve(size_t(pictures) * size_t(6 + 3 * tiles) + 8);

  const auto display = [&](const mpeg2::TileFrame&,
                           const core::TileDisplayInfo&) { ++pass.displayed; };
  std::optional<core::MacroblockSplitter> splitter;
  std::vector<std::unique_ptr<core::TileDecoder>> decs;
  {
    SpanScope s(rec, origin, kLayerSetup);
    splitter.emplace(geo);
    splitter->set_stream_info(root->stream_info());
    for (int t = 0; t < tiles; ++t)
      decs.push_back(
          std::make_unique<core::TileDecoder>(geo, t, root->stream_info()));
  }

  std::vector<proto::Packed> packed(static_cast<size_t>(tiles));
  std::vector<proto::SpMsg> msgs(static_cast<size_t>(tiles));
  std::vector<core::SubPicture> subs(static_cast<size_t>(tiles));
  for (int i = 0; i < pictures; ++i) {
    mem::Bytes coded;
    {
      SpanScope s(rec, origin, kLayerCopy, i);
      coded = mem::Bytes::copy_of(root->picture(i));
    }
    core::SplitResult split;
    {
      SpanScope s(rec, origin, kLayerSplit, i);
      split = splitter->split(coded, uint32_t(i));
    }
    PDW_CHECK(split.status.ok()) << " picture " << i << " failed to split";
    {
      SpanScope s(rec, origin, kLayerEncode, i);
      for (int d = 0; d < tiles; ++d)
        packed[size_t(d)] = proto::pack_sp(uint32_t(i), uint16_t(d), 0,
                                           split.subpictures[size_t(d)],
                                           split.mei[size_t(d)]);
    }
    {
      SpanScope s(rec, origin, kLayerDecodeWire, i);
      for (int d = 0; d < tiles; ++d) {
        PDW_CHECK(proto::decode(packed[size_t(d)].body, &msgs[size_t(d)]));
        subs[size_t(d)] =
            core::SubPicture::deserialize(msgs[size_t(d)].subpicture);
      }
    }
    for (int d = 0; d < tiles; ++d) {
      pass.sp_bytes += packed[size_t(d)].body.size();
      pass.mei += msgs[size_t(d)].mei.size();
    }
    // Serve: each tile executes its SEND instructions straight into the
    // peer's halo — the exchange message is the transport's business.
    for (int d = 0; d < tiles; ++d) {
      SpanScope s(rec, origin, kLayerServe, i, d);
      for (const core::MeiInstruction& instr : msgs[size_t(d)].mei) {
        if (instr.op == core::MeiOp::kConceal) {
          decs[size_t(d)]->stage_conceal(instr);
          continue;
        }
        if (instr.op != core::MeiOp::kSend) continue;
        core::MeiInstruction recv = instr;
        recv.op = core::MeiOp::kRecv;
        recv.peer = uint16_t(d);
        decs[instr.peer]->add_halo_mb(
            recv, decs[size_t(d)]->extract_for_send(split.info, instr));
        ++pass.halo_mbs;
      }
    }
    for (int d = 0; d < tiles; ++d) {
      SpanScope s(rec, origin, kLayerDecode, i, d);
      decs[size_t(d)]->decode(subs[size_t(d)], display);
    }
  }
  for (int d = 0; d < tiles; ++d) {
    SpanScope s(rec, origin, kLayerDecode, pictures, d);
    decs[size_t(d)]->flush(display);
  }
  pass.wall_s = seconds_since(origin);
  return pass;
}

double serial_seconds_per_picture(std::span<const uint8_t> es) {
  using namespace pdw;
  const core::RootSplitter root(es);
  mpeg2::Mpeg2Decoder dec;
  int frames = 0;
  const auto count = [&](const mpeg2::Frame&,
                         const mpeg2::DecodedPictureInfo&) { ++frames; };
  const auto t0 = Clock::now();
  for (int i = 0; i < root.picture_count(); ++i)
    dec.decode_picture_span(es, root.span(i), count);
  dec.flush(count);
  const double s = seconds_since(t0);
  PDW_CHECK_EQ(frames, root.picture_count());
  return s / root.picture_count();
}

namespace {

// `fab[node]` is the backend node `node` sends and receives through.
double rtt_us_p50(pdw::net::FabricBackend* fab[2], size_t bytes, int rounds) {
  using namespace pdw;
  const mem::Bytes payload = mem::Bytes::filled(bytes, 0x5a);
  std::vector<double> rtts;
  const int warmup = 10;
  for (int r = 0; r < warmup + rounds; ++r) {
    const auto t0 = Clock::now();
    for (int src = 0; src < 2; ++src) {
      const int dst = 1 - src;
      fab[dst]->post_receive(dst);
      net::Message m;
      m.type = 1;
      m.seq = uint32_t(r);
      m.bulk = true;
      m.payload = payload;
      PDW_CHECK(fab[src]->send(src, dst, std::move(m)) == net::SendStatus::kOk);
      net::Message got;
      PDW_CHECK(fab[dst]->receive_for(dst, 2.0, &got) == net::RecvStatus::kOk)
          << " ping-pong message lost";
      PDW_CHECK_EQ(got.payload.size(), bytes);
    }
    if (r >= warmup) rtts.push_back(seconds_since(t0) * 1e6);
  }
  return median(rtts);
}

}  // namespace

double socket_rtt_us_p50(size_t bytes, int rounds) {
  using namespace pdw;
  net::SocketFabric a(0, 2), b(1, 2);
  const std::vector<net::Endpoint> peers{a.local_endpoint(),
                                         b.local_endpoint()};
  a.set_peers(peers);
  b.set_peers(peers);
  net::FabricBackend* fab[2] = {&a, &b};
  return rtt_us_p50(fab, bytes, rounds);
}

double inproc_rtt_us_p50(size_t bytes, int rounds) {
  pdw::net::Fabric f(2);
  pdw::net::FabricBackend* fab[2] = {&f, &f};
  return rtt_us_p50(fab, bytes, rounds);
}

bool write_chrome_trace(const LayerPass& pass, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < pass.spans.size(); ++i) {
    const Span& s = pass.spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"pic\":%d,"
                 "\"cpu_us\":%.3f}}",
                 i ? "," : "", s.layer, s.tile + 1, s.t0 * 1e6,
                 (s.t1 - s.t0) * 1e6, s.pic, s.cpu_s * 1e6);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
