// Fuzz target: the telemetry frame codec (obs/telemetry.h). Arbitrary bytes
// through decode_frame(). Contract: malformed input is reported by a false
// return — never an exception, sanitizer report, OOM or hang. A frame that
// decodes must re-encode and decode to an equal frame.
#include <cstdint>
#include <vector>

#include "obs/telemetry.h"

using namespace pdw;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // A frame is one UDP datagram; past that, merging the string records into
  // one table could outgrow its u16 record length.
  if (size > 65507) return 0;
  obs::TelemetryFrame frame;
  if (!obs::decode_frame(data, size, &frame)) return 0;
  const std::vector<uint8_t> wire = obs::encode_frame(frame);
  obs::TelemetryFrame again;
  if (!obs::decode_frame(wire.data(), wire.size(), &again) || !(again == frame))
    __builtin_trap();
  return 0;
}
