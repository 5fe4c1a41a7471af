// Exact sample statistics: percentiles come from the sorted raw samples,
// never from histogram buckets.

#ifndef KGQAN_PERFBENCH_STATS_H_
#define KGQAN_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace kgqan::perfbench {

// Nearest-rank percentile (0 < p <= 100): the smallest sample with at
// least p% of the samples at or below it.  0 for no samples.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// Samples strictly above the nearest-rank p-th percentile position.
inline size_t SamplesAbove(size_t n, double p) {
  if (n == 0) return 0;
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::max<size_t>(rank, 1);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Length covered by the union of [start, end) intervals.
inline int64_t UnionNanos(std::vector<std::pair<int64_t, int64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : spans) {
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace kgqan::perfbench

#endif  // KGQAN_PERFBENCH_STATS_H_
