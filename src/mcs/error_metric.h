// Inference-error metrics of Definition 6: mean absolute error for
// continuous signals (temperature, humidity) and classification error for
// categorised signals (the U-Air PM2.5 AQI levels).
#pragma once

#include <span>
#include <string>
#include <vector>

namespace drcell::mcs {

class ErrorMetric {
 public:
  enum class Kind { kMae, kRmse, kClassification };

  static ErrorMetric mae();
  static ErrorMetric rmse();
  /// Classification error with finite category upper bounds (ascending;
  /// CheckError otherwise). A value v
  /// falls in the first category whose bound is >= v; values above the last
  /// bound fall in category bounds.size().
  static ErrorMetric classification(std::vector<double> category_bounds);
  /// The six U-Air AQI categories: Good (0-50), Moderate (51-100),
  /// Unhealthy-for-sensitive (101-150), Unhealthy (151-200),
  /// Very Unhealthy (201-300), Hazardous (>300).
  static ErrorMetric aqi_classification();

  Kind kind() const { return kind_; }
  bool is_classification() const { return kind_ == Kind::kClassification; }
  std::string name() const;

  /// The category upper bounds (empty unless is_classification()).
  const std::vector<double>& category_bounds() const {
    return category_bounds_;
  }

  /// Category index of a raw value (classification metrics only).
  int categorize(double value) const;

  /// Error between truth and estimate restricted to `indices`.
  /// MAE: mean |t - e|; RMSE: sqrt(mean (t-e)²);
  /// classification: fraction of indices whose category differs.
  /// Empty `indices` yields 0 (nothing left to infer — perfect).
  double error(std::span<const double> truth, std::span<const double> estimate,
               const std::vector<std::size_t>& indices) const;

  /// Per-entry error contribution (absolute deviation or 0/1 mismatch) —
  /// what the leave-one-out assessor samples.
  double pointwise_error(double truth, double estimate) const;

 private:
  explicit ErrorMetric(Kind kind, std::vector<double> bounds = {});

  Kind kind_;
  std::vector<double> category_bounds_;
};

}  // namespace drcell::mcs
