// Emit the seed corpora of the two byte-codec fuzz targets: one packed wire
// body per protocol message type (types 1-9, 12 and 13) into
// <corpus-root>/wire for fuzz/fuzz_wire.cpp, and a few encoded telemetry
// frames into <corpus-root>/telemetry for fuzz/fuzz_telemetry.cpp. Valid
// inputs (plus the corpus script's bit-flip variants of them) reach every
// field parser, which random bytes rarely do.
//
// Usage: wire_seed_tool <corpus-root>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "core/subpicture.h"
#include "obs/telemetry.h"
#include "proto/wire.h"

using namespace pdw;

namespace {

void write_file(const std::string& path, std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

void write_seed(const std::string& dir, const char* name,
                const proto::Packed& p) {
  write_file(dir + "/" + name + ".wire", p.body);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::string dir = std::string(argv[1]) + "/wire";
  const std::string tdir = std::string(argv[1]) + "/telemetry";
  std::filesystem::create_directories(dir);
  std::filesystem::create_directories(tdir);

  proto::PictureMsg pic;
  pic.pic_index = 5;
  pic.nsid = 1;
  pic.coded = {0x00, 0x00, 0x01, 0x00, 0x12, 0x34, 0x56, 0x78};
  write_seed(dir, "picture", proto::pack(pic));

  proto::SpMsg sp;
  sp.pic_index = 5;
  sp.tile = 2;
  sp.subpicture = mem::Bytes::filled(64, 0xA5);
  core::MeiInstruction send;
  send.op = core::MeiOp::kSend;
  send.mb_x = 3;
  send.mb_y = 4;
  send.peer = 1;
  sp.mei.push_back(send);
  sp.mei.push_back(core::make_conceal(1, 2, 0x80, 0x70, 0x60));
  write_seed(dir, "subpicture", proto::pack(sp));
  // The same message carrying a well-formed sub-picture (one SPH run), so
  // the harness's SubPicture::deserialize pass starts from valid bytes.
  core::SubPicture sub;
  sub.runs.emplace_back().num_coded = 2;
  sub.runs[0].payload = mem::Bytes::filled(12, 0x5A);
  sp.subpicture = sub.serialize_pooled();
  write_seed(dir, "subpicture_runs", proto::pack(sp));

  proto::GoAheadAck ack;
  ack.pic_index = 6;
  write_seed(dir, "goahead", proto::pack(ack));

  proto::ExchangeMsg ex;
  ex.pic_index = 5;
  ex.src_tile = 1;
  ex.dst_tile = 2;
  proto::ExchangeEntry e;
  e.instr.op = core::MeiOp::kRecv;
  e.instr.mb_x = 7;
  e.instr.mb_y = 8;
  e.instr.peer = 1;
  for (size_t i = 0; i < sizeof(e.px.y); ++i) e.px.y[i] = uint8_t(i);
  ex.entries.push_back(e);
  write_seed(dir, "exchange", proto::pack(ex));

  write_seed(dir, "end_of_stream", proto::pack(proto::EndOfStream{}));
  write_seed(dir, "heartbeat", proto::pack(proto::Heartbeat{3, 0}));
  write_seed(dir, "finished", proto::pack(proto::Finished{2, 0}));

  proto::DeathNotice dn;
  dn.dead_tile = 1;
  dn.adopter_tile = 3;
  dn.resync_pic = 12;
  write_seed(dir, "death_notice", proto::pack(dn));
  dn.adopter_tile = proto::kNoTile;
  write_seed(dir, "death_degraded", proto::pack(dn));

  write_seed(dir, "skip", proto::pack(proto::SkipBroadcast{4, 1, 0}));

  write_seed(dir, "partition_update",
             proto::pack(proto::PartitionUpdateMsg{2, 24, 0, {40, 80}, {34}}));
  write_seed(dir, "cost_report",
             proto::pack(proto::CostReportMsg{23, 0, {5, 9, 2, 7}, {11, 12}}));

  // Telemetry: one frame with every record type; the metric and span names
  // go through the string table.
  obs::TelemetryFrame full;
  full.token = 0x1234;
  full.seq = 2;
  full.hello = obs::HelloRecord{4321, 1, 2, 4, {2, 3}};
  full.metrics.push_back(
      {"pictures_decoded", 2, -1, obs::MetricKind::kCounter, 17, 0, 0, {}});
  full.metrics.push_back({"decode_ns", 3, -1, obs::MetricKind::kHistogram, 3,
                          0, 7000, {{11, 2}, {12, 1}}});
  full.spans.push_back({"decode_sp", 'X', 3, 1, 1000, 250, 7});
  full.probes.push_back({7, 1000, {net::kLoopbackIp, 40000}});
  full.replies.push_back({6, 900, 5000, 5010});
  full.offset = obs::OffsetRecord{-5000, 200, 3, 1};
  full.bye = true;
  write_file(tdir + "/full.frame", obs::encode_frame(full));
  return 0;
}
