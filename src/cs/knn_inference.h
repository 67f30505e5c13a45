// Spatial k-nearest-neighbour inference. The paper's QBC baseline uses a
// committee of heterogeneous inference algorithms ("such as compressive
// sensing and K-Nearest Neighbors"); this is the KNN member.
#pragma once

#include <vector>

#include "cs/inference_engine.h"

namespace drcell::cs {

/// 2-D cell centre used for spatial distances.
struct CellCoord {
  double x = 0.0;
  double y = 0.0;
};

double euclidean_distance(const CellCoord& a, const CellCoord& b);

class KnnInference final : public InferenceEngine {
 public:
  /// `coords[i]` is the centre of cell i (row i of the matrices).
  explicit KnnInference(std::vector<CellCoord> coords);

  /// For every unobserved (cell, cycle): inverse-distance-weighted (1/d)
  /// mean of the 4 nearest cells observed in the same cycle; falls back to
  /// the cell's own temporal mean, then to the global observed mean.
  Matrix infer(const PartialMatrix& observed) const override;
  std::string name() const override { return "knn"; }

 private:
  std::vector<CellCoord> coords_;
};

}  // namespace drcell::cs
