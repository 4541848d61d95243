// Order statistics of ascending-sorted samples: the failure sweep's
// per-scheme summaries and the experiment runner's timing and latency
// reports share these definitions.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace coyote::util {

/// Nearest-rank percentile of an ascending-sorted sample (p in (0, 1]);
/// 0 for an empty sample.
[[nodiscard]] inline double nearestRank(const std::vector<double>& sorted,
                                        double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Median of an ascending-sorted sample (the mean of the middle pair when
/// the count is even); 0 for an empty sample.
[[nodiscard]] inline double medianOf(const std::vector<double>& sorted) {
  if (sorted.empty()) return 0.0;
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

}  // namespace coyote::util
