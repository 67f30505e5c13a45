// Statistical helpers shared by the quality assessor, dataset generators
// and the benchmark harness: moments, correlation, distribution CDFs.
#pragma once

#include <cstddef>
#include <span>

namespace drcell {

/// Streaming mean/variance via Welford's algorithm.
class RunningStats {
 public:
  void add(double x);
  /// Number of samples added so far.
  std::size_t count() const { return n_; }
  /// Sample mean; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  /// sqrt(variance()).
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

double mean(std::span<const double> xs);
/// Unbiased sample variance; 0 for fewer than two samples.
double variance(std::span<const double> xs);
double stddev(std::span<const double> xs);
/// Pearson correlation; 0 if either side is constant. Sizes must match.
double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys);

/// log Γ(x) for x > 0 (Lanczos approximation).
double log_gamma(double x);
/// CDF of Student's t distribution with `dof` degrees of freedom.
/// Used by the quality assessor's posterior predictive (small LOO samples).
double student_t_cdf(double t, double dof);
/// Regularised incomplete beta function I_x(a, b) for x in [0,1], a,b > 0.
/// This is the CDF of the Beta(a, b) distribution — used by the Bayesian
/// quality assessor for classification error metrics.
double incomplete_beta(double a, double b, double x);

}  // namespace drcell
