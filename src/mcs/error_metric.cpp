#include "mcs/error_metric.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace drcell::mcs {

ErrorMetric::ErrorMetric(Kind kind, std::vector<double> bounds)
    : kind_(kind), category_bounds_(std::move(bounds)) {
  if (kind_ == Kind::kClassification) {
    DRCELL_CHECK_MSG(!category_bounds_.empty(),
                     "classification metric needs category bounds");
    DRCELL_CHECK_MSG(std::all_of(category_bounds_.begin(),
                                 category_bounds_.end(),
                                 [](double b) { return std::isfinite(b); }),
                     "category bounds must be finite");
    DRCELL_CHECK_MSG(
        std::is_sorted(category_bounds_.begin(), category_bounds_.end()),
        "category bounds must be ascending");
  }
}

ErrorMetric ErrorMetric::mae() { return ErrorMetric(Kind::kMae); }
ErrorMetric ErrorMetric::rmse() { return ErrorMetric(Kind::kRmse); }

ErrorMetric ErrorMetric::classification(std::vector<double> category_bounds) {
  return ErrorMetric(Kind::kClassification, std::move(category_bounds));
}

ErrorMetric ErrorMetric::aqi_classification() {
  return classification({50.0, 100.0, 150.0, 200.0, 300.0});
}

std::string ErrorMetric::name() const {
  switch (kind_) {
    case Kind::kMae: return "mean-absolute-error";
    case Kind::kRmse: return "root-mean-squared-error";
    case Kind::kClassification: return "classification-error";
  }
  return "unknown";
}

int ErrorMetric::categorize(double value) const {
  DRCELL_CHECK_MSG(kind_ == Kind::kClassification,
                   "categorize on a non-classification metric");
  const auto it = std::lower_bound(category_bounds_.begin(),
                                   category_bounds_.end(), value);
  return static_cast<int>(it - category_bounds_.begin());
}

double ErrorMetric::pointwise_error(double truth, double estimate) const {
  switch (kind_) {
    case Kind::kMae:
    case Kind::kRmse:
      return std::fabs(truth - estimate);
    case Kind::kClassification:
      return categorize(truth) == categorize(estimate) ? 0.0 : 1.0;
  }
  return 0.0;
}

double ErrorMetric::error(std::span<const double> truth,
                          std::span<const double> estimate,
                          const std::vector<std::size_t>& indices) const {
  DRCELL_CHECK(truth.size() == estimate.size());
  if (indices.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i : indices) {
    DRCELL_CHECK(i < truth.size());
    const double d = truth[i] - estimate[i];
    switch (kind_) {
      case Kind::kMae:
        acc += std::fabs(d);
        break;
      case Kind::kRmse:
        acc += d * d;
        break;
      case Kind::kClassification:
        acc += pointwise_error(truth[i], estimate[i]);
        break;
    }
  }
  acc /= static_cast<double>(indices.size());
  return kind_ == Kind::kRmse ? std::sqrt(acc) : acc;
}

}  // namespace drcell::mcs
