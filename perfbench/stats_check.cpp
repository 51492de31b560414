// Self-test of the benchmark's own measurement helpers: exact percentiles,
// interval/skew extraction from display timestamps, and the bit-exact tile
// check. Exits non-zero on the first failed expectation; perfbench/run.py
// runs it after every build.
#include <cmath>
#include <cstdio>
#include <vector>

#include "check.h"
#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "stats_check: FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(double(201 - i));  // 200..1
  // Nearest rank: p95 of 1..200 is the 190th value, with 10 beyond it.
  const auto p95 = exact_percentile(v, 0.95);
  expect(p95.has_value() && near(*p95, 190), "p95 of 1..200 is 190");
  const auto p50 = exact_percentile(v, 0.50);
  expect(p50.has_value() && near(*p50, 100), "p50 of 1..200 is 100");
  // 199 samples leave only 9 beyond rank ceil(0.95 * 199) = 190.
  v.pop_back();
  expect(!exact_percentile(v, 0.95).has_value(),
         "p95 with 9 samples beyond it is rejected");
  expect(exact_percentile(v, 0.95, 9).has_value(),
         "the same p95 is accepted when 9 beyond suffice");
  expect(!exact_percentile({}, 0.5).has_value(), "empty input is rejected");
  expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
         "median of odd and even counts");
}

void planted_wall() {
  // 300 pictures on 4 tiles: picture p completes at 5 ms + p * 20 ms, its
  // tiles land 1 ms apart (3 ms skew); every 10th picture is 6 ms late.
  const int tiles = 4, pictures = 300;
  std::vector<double> times(size_t(pictures * tiles));
  for (int p = 0; p < pictures; ++p) {
    const double done = 0.005 + p * 0.020 + (p % 10 == 9 ? 0.006 : 0.0);
    for (int t = 0; t < tiles; ++t)
      times[size_t(p * tiles + t)] = done - 0.001 * (tiles - 1 - t);
  }
  times[size_t(7 * tiles + 2)] = -1;  // picture 7 lost a tile
  const WallTiming w = wall_timing(times, tiles);
  expect(w.complete == pictures - 1, "incomplete picture is not counted");
  expect(near(w.first_complete_s, 0.005), "setup = first completion");
  expect(w.intervals.size() == size_t(pictures - 2), "one interval per gap");
  expect(near(median(w.intervals), 0.020), "planted 20 ms interval");
  const auto p95 = exact_percentile(w.intervals, 0.95);
  expect(p95.has_value() && near(*p95, 0.026), "late pictures set the p95");
  bool skew_ok = w.skews.size() == size_t(pictures - 1);
  for (double s : w.skews) skew_ok = skew_ok && near(s, 0.003);
  expect(skew_ok, "planted 3 ms skew on every complete picture");
}

void bit_exact() {
  pdw::mpeg2::Frame frame(64, 48);
  for (int c = 0; c < 3; ++c) {
    pdw::mpeg2::Plane& p = frame.plane(c);
    for (int y = 0; y < p.height(); ++y)
      for (int x = 0; x < p.width(); ++x)
        p.set(x, y, uint8_t(x * 7 + y * 3 + c));
  }
  // Tile = macroblocks [1, 3) x [1, 3), copied sample by sample.
  pdw::mpeg2::TileFrame tile(1, 1, 3, 3);
  for (int c = 0; c < 3; ++c) {
    const int s = c == 0 ? 0 : 1;
    for (int y = tile.py0() >> s; y < tile.py1() >> s; ++y)
      for (int x = tile.px0() >> s; x < tile.px1() >> s; ++x)
        *tile.pixel(c, x, y) = frame.plane(c).at(x, y);
  }
  const uint64_t h = tile_hash(tile);
  expect(h == frame_rect_hash(frame, 1, 1, 3, 3), "matching rect passes");
  expect(h != frame_rect_hash(frame, 0, 1, 2, 3), "shifted rect fails");
  pdw::mpeg2::Frame wrong = frame;
  wrong.cr.set(17, 13, uint8_t(wrong.cr.at(17, 13) ^ 1));
  expect(h != frame_rect_hash(wrong, 1, 1, 3, 3), "one flipped sample fails");
}

}  // namespace

int main() {
  percentiles();
  planted_wall();
  bit_exact();
  if (failures == 0) std::printf("stats_check: all expectations hold\n");
  return failures == 0 ? 0 : 1;
}
