#include "mcs/sensing_task.h"

#include <cmath>

namespace drcell::mcs {

SensingTask::SensingTask(std::string name, Matrix ground_truth,
                         std::vector<cs::CellCoord> coords, ErrorMetric metric,
                         double cycle_hours)
    : name_(std::move(name)),
      ground_truth_(std::move(ground_truth)),
      coords_(std::move(coords)),
      metric_(std::move(metric)),
      cycle_hours_(cycle_hours) {
  DRCELL_CHECK_MSG(ground_truth_.rows() > 0 && ground_truth_.cols() > 0,
                   "sensing task requires a non-empty data matrix");
  DRCELL_CHECK_MSG(coords_.size() == ground_truth_.rows(),
                   "one coordinate per cell required");
  DRCELL_CHECK_MSG(!ground_truth_.has_non_finite(),
                   "ground truth contains non-finite values");
  for (const auto& c : coords_)
    DRCELL_CHECK_MSG(std::isfinite(c.x) && std::isfinite(c.y),
                     "cell coordinates must be finite");
  DRCELL_CHECK_MSG(std::isfinite(cycle_hours_) && cycle_hours_ > 0.0,
                   "cycle_hours must be finite and positive");
}

SensingTask SensingTask::slice_cycles(std::size_t first,
                                      std::size_t last) const {
  DRCELL_CHECK_MSG(first < last && last <= num_cycles(),
                   "invalid cycle slice");
  Matrix sliced(num_cells(), last - first);
  for (std::size_t r = 0; r < num_cells(); ++r)
    for (std::size_t c = first; c < last; ++c)
      sliced(r, c - first) = ground_truth_(r, c);
  return SensingTask(name_ + "[" + std::to_string(first) + "," +
                         std::to_string(last) + ")",
                     std::move(sliced), coords_, metric_, cycle_hours_);
}

}  // namespace drcell::mcs
