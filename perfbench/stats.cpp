#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> exact_percentile(std::vector<double> samples, double q,
                                       int min_beyond) {
  const size_t n = samples.size();
  if (n == 0 || !(q > 0 && q <= 1)) return std::nullopt;
  const size_t rank = std::max<size_t>(1, size_t(std::ceil(q * double(n))));
  if (n - rank < size_t(std::max(0, min_beyond))) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + long(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return 0;
  std::sort(samples.begin(), samples.end());
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

WallTiming wall_timing(const std::vector<double>& tile_times, int tiles) {
  WallTiming w;
  std::vector<double> done;
  for (size_t p = 0; p + size_t(tiles) <= tile_times.size();
       p += size_t(tiles)) {
    const auto first = tile_times.begin() + long(p);
    const auto [lo, hi] = std::minmax_element(first, first + tiles);
    if (*lo < 0) continue;  // some tile never displayed this picture
    done.push_back(*hi);
    w.skews.push_back(*hi - *lo);
  }
  std::sort(done.begin(), done.end());
  w.complete = int(done.size());
  if (!done.empty()) w.first_complete_s = done.front();
  for (size_t i = 1; i < done.size(); ++i)
    w.intervals.push_back(done[i] - done[i - 1]);
  return w;
}

}  // namespace perfbench
