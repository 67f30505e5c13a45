#include "cs/knn_inference.h"

#include <algorithm>
#include <cmath>

namespace drcell::cs {

namespace {
// Neighbours per estimate.
constexpr std::size_t kNeighbours = 4;
}  // namespace

double euclidean_distance(const CellCoord& a, const CellCoord& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

KnnInference::KnnInference(std::vector<CellCoord> coords)
    : coords_(std::move(coords)) {
  DRCELL_CHECK_MSG(!coords_.empty(), "KNN requires cell coordinates");
}

Matrix KnnInference::infer(const PartialMatrix& observed) const {
  const std::size_t m = observed.rows();
  const std::size_t n = observed.cols();
  DRCELL_CHECK_MSG(m == coords_.size(),
                   "KNN: row count does not match coordinate count");
  const double global_mean = observed.observed_mean();
  Matrix est(m, n, global_mean);

  // Per-cell temporal means (fallback when a cycle has no observations).
  std::vector<double> cell_mean(m, global_mean);
  for (std::size_t r = 0; r < m; ++r) {
    const auto& cols = observed.observed_cols_in_row(r);
    if (cols.empty()) continue;
    double s = 0.0;
    for (std::size_t c : cols) s += observed.value(r, c);
    cell_mean[r] = s / static_cast<double>(cols.size());
  }

  for (std::size_t c = 0; c < n; ++c) {
    const auto& obs_rows = observed.observed_rows_in_col(c);
    for (std::size_t r = 0; r < m; ++r) {
      if (observed.observed(r, c)) {
        est(r, c) = observed.value(r, c);
        continue;
      }
      if (obs_rows.empty()) {
        est(r, c) = cell_mean[r];
        continue;
      }
      // k nearest observed cells in this cycle.
      std::vector<std::pair<double, std::size_t>> by_dist;
      by_dist.reserve(obs_rows.size());
      for (std::size_t o : obs_rows)
        by_dist.emplace_back(euclidean_distance(coords_[r], coords_[o]), o);
      const std::size_t k = std::min(kNeighbours, by_dist.size());
      std::partial_sort(by_dist.begin(), by_dist.begin() + k, by_dist.end());
      double wsum = 0.0, vsum = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        const auto [d, o] = by_dist[i];
        // A coincident observed cell determines the value outright.
        if (d == 0.0) {
          wsum = 1.0;
          vsum = observed.value(o, c);
          break;
        }
        // Inverse-distance weight.
        const double w = 1.0 / d;
        wsum += w;
        vsum += w * observed.value(o, c);
      }
      est(r, c) = vsum / wsum;
    }
  }
  return est;
}

}  // namespace drcell::cs
