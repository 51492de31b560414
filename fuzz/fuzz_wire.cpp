// Fuzz target: the typed wire codec. Arbitrary bytes through decode_any()
// and every typed decode(), message types 1-9 and 12-13 (10 and 11 are
// retired and must fail as unknown types). Contract: malformed input is
// reported by a false/nullopt return — never an exception, sanitizer report,
// OOM or hang. Messages that do decode must re-encode to an equal message.
// An accepted SpMsg body's sub-picture bytes also go through
// core::SubPicture::deserialize, whose only allowed rejection is a
// pdw::CheckError.
#include <cstdint>
#include <span>

#include "common/check.h"
#include "core/subpicture.h"
#include "proto/wire.h"

using namespace pdw;

namespace {

template <typename T>
bool try_typed(std::span<const uint8_t> data, T* out) {
  if (!proto::decode(data, out)) return false;
  // Accepted bodies must round-trip through pack() unchanged.
  const proto::Packed p = proto::pack(*out);
  T again;
  if (!proto::decode(p.body, &again) || !(again == *out)) __builtin_trap();
  return true;
}

template <typename T>
void try_typed(std::span<const uint8_t> data) {
  T out;
  try_typed(data, &out);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> body(data, size);
  (void)proto::decode_any(body);
  try_typed<proto::PictureMsg>(body);
  proto::SpMsg sp;
  if (try_typed(body, &sp)) {
    try {
      (void)core::SubPicture::deserialize(sp.subpicture);
    } catch (const CheckError&) {
      // Malformed sub-picture internals: the one allowed rejection.
    }
  }
  try_typed<proto::GoAheadAck>(body);
  try_typed<proto::ExchangeMsg>(body);
  try_typed<proto::EndOfStream>(body);
  try_typed<proto::Heartbeat>(body);
  try_typed<proto::Finished>(body);
  try_typed<proto::DeathNotice>(body);
  try_typed<proto::SkipBroadcast>(body);
  try_typed<proto::PartitionUpdateMsg>(body);
  try_typed<proto::CostReportMsg>(body);
  return 0;
}
