#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Summary statistics the benchmark reports. Kept apart so the self-test can
// check them on known inputs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

/// Geometric mean of positive values; 0 when empty or any value is not
/// positive. Used for class metrics whose templates differ several-fold in
/// latency, where one median over all of them would be bimodal.
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Samples strictly above the nearest-rank p-quantile of n samples.
inline size_t SamplesBeyond(size_t n, double p) {
  auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::max<size_t>(rank, 1);
}

/// Nearest-rank p-quantile, reported only when at least `min_beyond`
/// samples lie beyond it; otherwise the sample is too small to show a tail.
inline std::optional<double> TailPercentile(std::vector<double> v, double p,
                                            size_t min_beyond = 10) {
  if (v.empty() || SamplesBeyond(v.size(), p) < min_beyond) return std::nullopt;
  auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  size_t idx = std::max<size_t>(rank, 1) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
