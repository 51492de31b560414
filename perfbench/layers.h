// The traced layer pass of the wall benchmark: the benchmark drives each
// layer's public entry points itself, in lockstep order, and records one
// span (wall time and thread CPU time) around every call. No span lives in
// the decoder sources; spans stay in memory until the run writes them out.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wall/geometry.h"

namespace perfbench {

struct Span {
  const char* layer = "";  // one of the kLayer* names below
  int pic = -1;            // picture index, -1 for per-stream work
  int tile = -1;           // tile index, -1 for non-tile work
  double t0 = 0, t1 = 0;   // steady_clock seconds from the pass start
  double cpu_s = 0;        // CLOCK_THREAD_CPUTIME_ID seconds inside the span
};

inline constexpr const char* kLayerScan = "root.scan";
inline constexpr const char* kLayerSetup = "setup";
inline constexpr const char* kLayerCopy = "root.copy";
inline constexpr const char* kLayerSplit = "split";
inline constexpr const char* kLayerEncode = "wire.encode";
inline constexpr const char* kLayerDecodeWire = "wire.decode";
inline constexpr const char* kLayerServe = "halo.serve";
inline constexpr const char* kLayerDecode = "decode";

// One pass over every picture of `es`: RootSplitter scan, picture copy into
// a pooled buffer, MacroblockSplitter::split, wire encode and decode of the
// sub-picture messages, MEI serve (extract_for_send + add_halo_mb) and
// TileDecoder::decode. With `traced` false the same calls run without
// spans, for the tracing-overhead comparison.
struct LayerPass {
  double wall_s = 0;
  int pictures = 0;
  int tiles = 0;
  std::vector<Span> spans;
  uint64_t sp_bytes = 0;     // SpMsg wire bodies, all tiles and pictures
  uint64_t mei = 0;          // MEI instructions, all tiles and pictures
  uint64_t halo_mbs = 0;     // macroblocks served across tile edges
  uint64_t displayed = 0;    // tile frames the decoders emitted
};
LayerPass run_layer_pass(const pdw::wall::TileGeometry& geo,
                         std::span<const uint8_t> es, bool traced);

// Seconds per picture of the plain serial decoder over the same stream.
double serial_seconds_per_picture(std::span<const uint8_t> es);

// Median round-trip time, in microseconds, of a `bytes`-sized bulk message
// bounced between two nodes using only the public send / receive calls:
// over two SocketFabrics on loopback, or through one in-process Fabric.
double socket_rtt_us_p50(size_t bytes, int rounds);
double inproc_rtt_us_p50(size_t bytes, int rounds);

// Chrome trace-event JSON of a pass's spans (one track per tile).
bool write_chrome_trace(const LayerPass& pass, const std::string& path);

}  // namespace perfbench
