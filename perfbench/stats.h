// Sample statistics for the wall benchmark: exact percentiles over raw
// samples (never log2 buckets) and the per-picture timing of a wall session
// (frame intervals and tile completion skew) from display timestamps.
#pragma once

#include <optional>
#include <vector>

namespace perfbench {

// Exact nearest-rank percentile `q` in (0, 1] of `samples`: the sorted
// sample at rank ceil(q * n). Returns nullopt when fewer than `min_beyond`
// samples rank above it, so a reported p95 always rests on at least that
// many slower samples.
std::optional<double> exact_percentile(std::vector<double> samples, double q,
                                       int min_beyond = 10);

// Median (mean of the two middle samples for even n); 0 for no samples.
double median(std::vector<double> samples);

// Display timestamps of one session, in seconds from the engine call:
// tile_times[picture * tiles + tile], negative when that tile never showed.
struct WallTiming {
  int complete = 0;                // pictures with every tile displayed
  double first_complete_s = -1;    // earliest complete picture (setup time)
  std::vector<double> intervals;   // gaps between consecutive completions
  std::vector<double> skews;       // last minus first tile, per picture
};

// A picture is complete when its last tile is displayed; intervals are the
// gaps between consecutive completion times in time order.
WallTiming wall_timing(const std::vector<double>& tile_times, int tiles);

}  // namespace perfbench
