// Order statistics for the benchmark's reports.
//
// Percentiles use the nearest-rank definition: the q-percentile of n sorted
// samples is the sample at 1-based rank ceil(q * n). A percentile is only
// reported when at least kMinTail samples lie beyond that rank, so a p90
// needs n >= 100 samples and a p99 needs n >= 1000.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTail = 10;

/// 1-based nearest rank of the q-percentile among n samples (q in (0, 1]).
std::size_t nearest_rank(std::size_t n, double q);

/// Samples ranked strictly beyond the q-percentile of n samples.
std::size_t tail_count(std::size_t n, double q);

/// Nearest-rank q-percentile of `values` (unsorted; copied). 0 when empty.
double percentile(std::vector<double> values, double q);

/// Median as the mean of the two middle values for even n. 0 when empty.
double median(std::vector<double> values);

}  // namespace perfbench
