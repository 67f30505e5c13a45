#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon absorbs representation error: 0.9 * 100 is 90.000...01.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t tail_count(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
