#include "proto/wire.h"

#include <cstring>

#include "common/bytes.h"
#include "core/subpicture.h"

namespace pdw::proto {

namespace {

// Fixed body sizes of the non-bulk messages: [version][type][stream] + fields.
constexpr size_t kGoAheadBodyBytes = 3 + 4;
constexpr size_t kEndOfStreamBodyBytes = 3;
constexpr size_t kHeartbeatBodyBytes = 3 + 2;
constexpr size_t kFinishedBodyBytes = 3 + 2;
constexpr size_t kDeathNoticeBodyBytes = 3 + 2 + 2 + 4;
constexpr size_t kSkipBroadcastBodyBytes = 3 + 4 + 2;

// Allocate the exact-size pooled body and return a writer over it. The
// PDW_CHECK in finish_body catches any drift between the size helpers and
// the actual encoding.
ByteWriter body_writer(Packed* p, size_t body_bytes) {
  p->body = mem::Bytes::alloc(body_bytes);
  return ByteWriter(p->body.mutable_data(), body_bytes);
}

void finish_body(const Packed& p, const ByteWriter& w) {
  PDW_CHECK_EQ(w.size(), p.body.size());
}

// Every body begins [version][type][stream]. Decoders read each field
// straight into the message through the latching common/bytes.h reader and
// test r.done() once, after their own range checks.
void put_prefix(ByteWriter* w, MsgType type, uint8_t stream) {
  w->u8(kWireVersion);
  w->u8(uint8_t(type));
  w->u8(stream);
}

// False on a version or type mismatch (a truncated prefix reads as zeros,
// which match neither).
bool take_prefix(ByteReader* r, MsgType want, uint8_t* stream) {
  const uint8_t version = r->u8();
  const uint8_t type = r->u8();
  *stream = r->u8();
  return version == kWireVersion && type == uint8_t(want);
}

// The 8-byte MEI instruction framing ([op][ref][mb_x][mb_y][peer]), shared
// by the SP message's MEI list and the exchange entries. The op byte is the
// caller's: an exchange entry carries its tainted flag in the high bit.
void put_mei(ByteWriter* w, uint8_t op, const core::MeiInstruction& i) {
  w->u8(op);
  w->u8(i.ref);
  w->u16(i.mb_x);
  w->u16(i.mb_y);
  w->u16(i.peer);
}

// Reads one instruction; returns its raw op byte for the caller to check.
uint8_t take_mei(ByteReader* r, core::MeiInstruction* i) {
  const uint8_t op = r->u8();
  i->ref = r->u8();
  i->mb_x = r->u16();
  i->mb_y = r->u16();
  i->peer = r->u16();
  return op;
}

static_assert(kExchangeEntryWireBytes == 392);

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kPicture: return "picture";
    case MsgType::kSubPicture: return "sub-picture";
    case MsgType::kGoAheadAck: return "go-ahead/ack";
    case MsgType::kExchange: return "exchange";
    case MsgType::kEndOfStream: return "end-of-stream";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kFinished: return "finished";
    case MsgType::kDeathNotice: return "death-notice";
    case MsgType::kSkipBroadcast: return "skip";
    case MsgType::kPartitionUpdate: return "partition-update";
    case MsgType::kCostReport: return "cost-report";
  }
  return "unknown";
}

// --- PictureMsg ------------------------------------------------------------

Packed pack_picture(uint32_t pic_index, uint16_t nsid, uint8_t stream,
                    std::span<const uint8_t> coded, uint32_t epoch) {
  Packed p;
  p.type = MsgType::kPicture;
  p.stream = stream;
  p.seq = pic_index;
  p.aux = nsid;
  p.bulk = true;
  ByteWriter w = body_writer(&p, picture_msg_wire_bytes(coded.size()));
  put_prefix(&w, MsgType::kPicture, stream);
  w.u32(pic_index);
  w.u16(nsid);
  w.u32(epoch);
  w.u32(uint32_t(coded.size()));
  w.bytes(coded);
  finish_body(p, w);
  return p;
}

Packed pack(const PictureMsg& m) {
  return pack_picture(m.pic_index, m.nsid, m.stream, m.coded, m.epoch);
}

namespace {

bool decode_picture(std::span<const uint8_t> data, const mem::Bytes* parent,
                    PictureMsg* out) {
  ByteReader r(data);
  if (!take_prefix(&r, MsgType::kPicture, &out->stream)) return false;
  out->pic_index = r.u32();
  out->nsid = r.u16();
  out->epoch = r.u32();
  const uint32_t len = r.u32();
  if (!r.ok() || len != r.remaining()) return false;
  const size_t off = r.pos();
  const auto coded = r.bytes(len);
  out->coded = parent ? parent->view(off, len) : mem::Bytes::copy_of(coded);
  return r.done();
}

}  // namespace

bool decode(std::span<const uint8_t> data, PictureMsg* out) {
  return decode_picture(data, nullptr, out);
}

bool decode(const mem::Bytes& data, PictureMsg* out) {
  return decode_picture(data.span(), &data, out);
}

// --- SpMsg -----------------------------------------------------------------

namespace {

void put_mei_list(ByteWriter* w, const std::vector<core::MeiInstruction>& mei) {
  w->u32(uint32_t(mei.size()));
  for (const core::MeiInstruction& i : mei) put_mei(w, uint8_t(i.op), i);
}

void put_sp_header(ByteWriter* w, uint32_t pic_index, uint16_t tile,
                   uint8_t stream, uint32_t epoch, size_t sp_len) {
  put_prefix(w, MsgType::kSubPicture, stream);
  w->u32(pic_index);
  w->u16(tile);
  w->u32(epoch);
  w->u32(uint32_t(sp_len));
}

Packed sp_envelope(uint32_t pic_index, uint16_t tile, uint8_t stream) {
  Packed p;
  p.type = MsgType::kSubPicture;
  p.stream = stream;
  p.seq = pic_index;
  p.aux = tile;
  p.bulk = true;
  return p;
}

}  // namespace

Packed pack(const SpMsg& m) {
  Packed p = sp_envelope(m.pic_index, m.tile, m.stream);
  ByteWriter w =
      body_writer(&p, sp_msg_wire_bytes(m.subpicture.size(), m.mei.size()));
  put_sp_header(&w, m.pic_index, m.tile, m.stream, m.epoch,
                m.subpicture.size());
  w.bytes(m.subpicture);
  put_mei_list(&w, m.mei);
  finish_body(p, w);
  return p;
}

Packed pack_sp(uint32_t pic_index, uint16_t tile, uint8_t stream,
               const core::SubPicture& sp,
               const std::vector<core::MeiInstruction>& mei, uint32_t epoch) {
  Packed p = sp_envelope(pic_index, tile, stream);
  const size_t sp_len = sp.wire_bytes();
  ByteWriter w = body_writer(&p, sp_msg_wire_bytes(sp_len, mei.size()));
  put_sp_header(&w, pic_index, tile, stream, epoch, sp_len);
  sp.serialize_into(&w);
  put_mei_list(&w, mei);
  finish_body(p, w);
  return p;
}

namespace {

bool decode_sp(std::span<const uint8_t> data, const mem::Bytes* parent,
               SpMsg* out) {
  ByteReader r(data);
  if (!take_prefix(&r, MsgType::kSubPicture, &out->stream)) return false;
  out->pic_index = r.u32();
  out->tile = r.u16();
  out->epoch = r.u32();
  const uint32_t sp_len = r.u32();
  const size_t off = r.pos();
  const auto sp = r.bytes(sp_len);
  const uint32_t mei_count = r.u32();
  if (!r.ok() || size_t(mei_count) * core::kMeiWireBytes != r.remaining())
    return false;
  out->subpicture =
      parent ? parent->view(off, sp_len) : mem::Bytes::copy_of(sp);
  out->mei.resize(mei_count);
  for (core::MeiInstruction& i : out->mei) {
    const uint8_t op = take_mei(&r, &i);
    if (op > uint8_t(core::MeiOp::kConceal)) return false;
    i.op = core::MeiOp(op);
  }
  return r.done();
}

}  // namespace

bool decode(std::span<const uint8_t> data, SpMsg* out) {
  return decode_sp(data, nullptr, out);
}

bool decode(const mem::Bytes& data, SpMsg* out) {
  return decode_sp(data.span(), &data, out);
}

size_t sp_msg_wire_bytes(size_t subpicture_bytes, size_t mei_count) {
  return 3 /*prefix*/ + 4 /*pic*/ + 2 /*tile*/ + 4 /*epoch*/ + 4 +
         subpicture_bytes + 4 + mei_count * core::kMeiWireBytes;
}

size_t picture_msg_wire_bytes(size_t coded_bytes) {
  return 3 /*prefix*/ + 4 /*pic*/ + 2 /*nsid*/ + 4 /*epoch*/ + 4 + coded_bytes;
}

size_t exchange_msg_wire_bytes(size_t entry_count) {
  return 3 /*prefix*/ + 4 /*pic*/ + 2 /*src*/ + 2 /*dst*/ + 4 +
         entry_count * kExchangeEntryWireBytes;
}

size_t partition_update_wire_bytes(size_t col_cuts, size_t row_cuts) {
  return 3 /*prefix*/ + 4 /*epoch*/ + 4 /*apply_from*/ + 2 + 2 +
         (col_cuts + row_cuts) * 2;
}

size_t cost_report_wire_bytes(size_t cols, size_t rows) {
  return 3 /*prefix*/ + 4 /*pic*/ + 2 + 2 + (cols + rows) * 4;
}

// --- GoAheadAck ------------------------------------------------------------

Packed pack(const GoAheadAck& m) {
  Packed p;
  p.type = MsgType::kGoAheadAck;
  p.stream = m.stream;
  p.seq = m.pic_index;
  ByteWriter w = body_writer(&p, kGoAheadBodyBytes);
  put_prefix(&w, MsgType::kGoAheadAck, m.stream);
  w.u32(m.pic_index);
  finish_body(p, w);
  return p;
}

bool decode(std::span<const uint8_t> data, GoAheadAck* out) {
  ByteReader r(data);
  if (!take_prefix(&r, MsgType::kGoAheadAck, &out->stream)) return false;
  out->pic_index = r.u32();
  return r.done();
}

// --- ExchangeMsg -----------------------------------------------------------

Packed pack(const ExchangeMsg& m) {
  Packed p;
  p.type = MsgType::kExchange;
  p.stream = m.stream;
  p.seq = m.pic_index;
  p.aux = m.src_tile;
  ByteWriter w = body_writer(&p, exchange_msg_wire_bytes(m.entries.size()));
  put_prefix(&w, MsgType::kExchange, m.stream);
  w.u32(m.pic_index);
  w.u16(m.src_tile);
  w.u16(m.dst_tile);
  w.u32(uint32_t(m.entries.size()));
  for (const ExchangeEntry& e : m.entries) {
    const uint8_t op = uint8_t(core::MeiOp::kRecv) | (e.tainted ? 0x80 : 0);
    put_mei(&w, op, e.instr);
    w.bytes(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(&e.px), sizeof(e.px)));
  }
  finish_body(p, w);
  return p;
}

bool decode(std::span<const uint8_t> data, ExchangeMsg* out) {
  ByteReader r(data);
  if (!take_prefix(&r, MsgType::kExchange, &out->stream)) return false;
  out->pic_index = r.u32();
  out->src_tile = r.u16();
  out->dst_tile = r.u16();
  const uint32_t count = r.u32();
  if (!r.ok() || size_t(count) * kExchangeEntryWireBytes != r.remaining())
    return false;
  out->entries.resize(count);
  for (ExchangeEntry& e : out->entries) {
    // The tainted flag rides the op byte's high bit, so an entry costs
    // exactly kExchangeEntryWireBytes.
    const uint8_t op = take_mei(&r, &e.instr);
    e.tainted = (op & 0x80) != 0;
    if ((op & 0x7F) != uint8_t(core::MeiOp::kRecv)) return false;
    e.instr.op = core::MeiOp::kRecv;
    std::memcpy(&e.px, r.bytes(sizeof(e.px)).data(), sizeof(e.px));
  }
  return r.done();
}

// --- EndOfStream -----------------------------------------------------------

Packed pack(const EndOfStream& m) {
  Packed p;
  p.type = MsgType::kEndOfStream;
  p.stream = m.stream;
  ByteWriter w = body_writer(&p, kEndOfStreamBodyBytes);
  put_prefix(&w, MsgType::kEndOfStream, m.stream);
  finish_body(p, w);
  return p;
}

bool decode(std::span<const uint8_t> data, EndOfStream* out) {
  ByteReader r(data);
  return take_prefix(&r, MsgType::kEndOfStream, &out->stream) && r.done();
}

// --- Heartbeat -------------------------------------------------------------

Packed pack(const Heartbeat& m) {
  Packed p;
  p.type = MsgType::kHeartbeat;
  p.stream = m.stream;
  p.aux = m.tile;
  ByteWriter w = body_writer(&p, kHeartbeatBodyBytes);
  put_prefix(&w, MsgType::kHeartbeat, m.stream);
  w.u16(m.tile);
  finish_body(p, w);
  return p;
}

bool decode(std::span<const uint8_t> data, Heartbeat* out) {
  ByteReader r(data);
  if (!take_prefix(&r, MsgType::kHeartbeat, &out->stream)) return false;
  out->tile = r.u16();
  return r.done();
}

// --- Finished --------------------------------------------------------------

Packed pack(const Finished& m) {
  Packed p;
  p.type = MsgType::kFinished;
  p.stream = m.stream;
  p.aux = m.tile;
  ByteWriter w = body_writer(&p, kFinishedBodyBytes);
  put_prefix(&w, MsgType::kFinished, m.stream);
  w.u16(m.tile);
  finish_body(p, w);
  return p;
}

bool decode(std::span<const uint8_t> data, Finished* out) {
  ByteReader r(data);
  if (!take_prefix(&r, MsgType::kFinished, &out->stream)) return false;
  out->tile = r.u16();
  return r.done();
}

// --- DeathNotice -----------------------------------------------------------

Packed pack(const DeathNotice& m) {
  Packed p;
  p.type = MsgType::kDeathNotice;
  p.stream = m.stream;
  p.seq = m.resync_pic;
  p.aux = m.dead_tile;
  ByteWriter w = body_writer(&p, kDeathNoticeBodyBytes);
  put_prefix(&w, MsgType::kDeathNotice, m.stream);
  w.u16(m.dead_tile);
  w.u16(m.adopter_tile);
  w.u32(m.resync_pic);
  finish_body(p, w);
  return p;
}

bool decode(std::span<const uint8_t> data, DeathNotice* out) {
  ByteReader r(data);
  if (!take_prefix(&r, MsgType::kDeathNotice, &out->stream)) return false;
  out->dead_tile = r.u16();
  out->adopter_tile = r.u16();
  out->resync_pic = r.u32();
  return r.done();
}

// --- SkipBroadcast ---------------------------------------------------------

Packed pack(const SkipBroadcast& m) {
  Packed p;
  p.type = MsgType::kSkipBroadcast;
  p.stream = m.stream;
  p.seq = m.pic_index;
  p.aux = m.tile;
  ByteWriter w = body_writer(&p, kSkipBroadcastBodyBytes);
  put_prefix(&w, MsgType::kSkipBroadcast, m.stream);
  w.u32(m.pic_index);
  w.u16(m.tile);
  finish_body(p, w);
  return p;
}

bool decode(std::span<const uint8_t> data, SkipBroadcast* out) {
  ByteReader r(data);
  if (!take_prefix(&r, MsgType::kSkipBroadcast, &out->stream)) return false;
  out->pic_index = r.u32();
  out->tile = r.u16();
  return r.done();
}

// --- PartitionUpdateMsg ----------------------------------------------------

Packed pack(const PartitionUpdateMsg& m) {
  Packed p;
  p.type = MsgType::kPartitionUpdate;
  p.stream = m.stream;
  p.seq = m.apply_from_pic;
  p.aux = uint16_t(m.epoch);
  ByteWriter w = body_writer(
      &p, partition_update_wire_bytes(m.col_cuts_mb.size(), m.row_cuts_mb.size()));
  put_prefix(&w, MsgType::kPartitionUpdate, m.stream);
  w.u32(m.epoch);
  w.u32(m.apply_from_pic);
  w.u16(uint16_t(m.col_cuts_mb.size()));
  w.u16(uint16_t(m.row_cuts_mb.size()));
  for (uint16_t c : m.col_cuts_mb) w.u16(c);
  for (uint16_t c : m.row_cuts_mb) w.u16(c);
  finish_body(p, w);
  return p;
}

bool decode(std::span<const uint8_t> data, PartitionUpdateMsg* out) {
  ByteReader r(data);
  if (!take_prefix(&r, MsgType::kPartitionUpdate, &out->stream)) return false;
  out->epoch = r.u32();
  out->apply_from_pic = r.u32();
  const uint16_t cols = r.u16();
  const uint16_t rows = r.u16();
  if (!r.ok() || (size_t(cols) + rows) * 2 != r.remaining()) return false;
  out->col_cuts_mb.resize(cols);
  out->row_cuts_mb.resize(rows);
  for (uint16_t& c : out->col_cuts_mb) c = r.u16();
  for (uint16_t& c : out->row_cuts_mb) c = r.u16();
  // Cut lines must strictly increase from a nonzero start: reject malformed
  // partitions here so state machines never install an invalid geometry.
  const auto increasing = [](const std::vector<uint16_t>& v) {
    for (size_t i = 0; i < v.size(); ++i)
      if (v[i] == 0 || (i > 0 && v[i] <= v[i - 1])) return false;
    return true;
  };
  return increasing(out->col_cuts_mb) && increasing(out->row_cuts_mb) &&
         r.done();
}

// --- CostReportMsg ---------------------------------------------------------

Packed pack(const CostReportMsg& m) {
  Packed p;
  p.type = MsgType::kCostReport;
  p.stream = m.stream;
  p.seq = m.pic_index;
  ByteWriter w = body_writer(
      &p, cost_report_wire_bytes(m.col_cost.size(), m.row_cost.size()));
  put_prefix(&w, MsgType::kCostReport, m.stream);
  w.u32(m.pic_index);
  w.u16(uint16_t(m.col_cost.size()));
  w.u16(uint16_t(m.row_cost.size()));
  for (uint32_t c : m.col_cost) w.u32(c);
  for (uint32_t c : m.row_cost) w.u32(c);
  finish_body(p, w);
  return p;
}

bool decode(std::span<const uint8_t> data, CostReportMsg* out) {
  ByteReader r(data);
  if (!take_prefix(&r, MsgType::kCostReport, &out->stream)) return false;
  out->pic_index = r.u32();
  const uint16_t cols = r.u16();
  const uint16_t rows = r.u16();
  if (!r.ok() || (size_t(cols) + rows) * 4 != r.remaining()) return false;
  out->col_cost.resize(cols);
  out->row_cost.resize(rows);
  for (uint32_t& c : out->col_cost) c = r.u32();
  for (uint32_t& c : out->row_cost) c = r.u32();
  return r.done();
}

// --- decode_any ------------------------------------------------------------

std::optional<AnyMsg> decode_any(std::span<const uint8_t> data) {
  if (data.size() < 2) return std::nullopt;
  const auto type = MsgType(data[1]);
  const auto try_decode = [&](auto msg) -> std::optional<AnyMsg> {
    if (!decode(data, &msg)) return std::nullopt;
    return AnyMsg(std::move(msg));
  };
  switch (type) {
    case MsgType::kPicture: return try_decode(PictureMsg{});
    case MsgType::kSubPicture: return try_decode(SpMsg{});
    case MsgType::kGoAheadAck: return try_decode(GoAheadAck{});
    case MsgType::kExchange: return try_decode(ExchangeMsg{});
    case MsgType::kEndOfStream: return try_decode(EndOfStream{});
    case MsgType::kHeartbeat: return try_decode(Heartbeat{});
    case MsgType::kFinished: return try_decode(Finished{});
    case MsgType::kDeathNotice: return try_decode(DeathNotice{});
    case MsgType::kSkipBroadcast: return try_decode(SkipBroadcast{});
    case MsgType::kPartitionUpdate: return try_decode(PartitionUpdateMsg{});
    case MsgType::kCostReport: return try_decode(CostReportMsg{});
  }
  return std::nullopt;
}

std::optional<AnyMsg> decode_any(const mem::Bytes& data) {
  if (data.size() < 2) return std::nullopt;
  // Only the two bulk types carry payloads worth viewing; everything else
  // takes the span path.
  const auto viewed = [&](auto msg) -> std::optional<AnyMsg> {
    if (!decode(data, &msg)) return std::nullopt;
    return AnyMsg(std::move(msg));
  };
  switch (MsgType(data[1])) {
    case MsgType::kPicture: return viewed(PictureMsg{});
    case MsgType::kSubPicture: return viewed(SpMsg{});
    default: return decode_any(data.span());
  }
}

}  // namespace pdw::proto
