#include "util/statistics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace drcell {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys) {
  DRCELL_CHECK(xs.size() == ys.size());
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double log_gamma(double x) {
  DRCELL_CHECK_MSG(x > 0.0, "log_gamma domain");
  // Lanczos approximation, g = 7, n = 9.
  static const double coeffs[] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula.
    const double pi = 3.14159265358979323846;
    return std::log(pi / std::sin(pi * x)) - log_gamma(1.0 - x);
  }
  x -= 1.0;
  double a = coeffs[0];
  const double t = x + 7.5;
  for (int i = 1; i < 9; ++i) a += coeffs[i] / (x + static_cast<double>(i));
  const double half_log_two_pi = 0.91893853320467274178;
  return half_log_two_pi + (x + 0.5) * std::log(t) - t + std::log(a);
}

double student_t_cdf(double t, double dof) {
  DRCELL_CHECK_MSG(dof > 0.0, "student_t_cdf needs positive dof");
  if (t == 0.0) return 0.5;
  const double x = dof / (dof + t * t);
  const double half_tail = 0.5 * incomplete_beta(dof / 2.0, 0.5, x);
  return t > 0.0 ? 1.0 - half_tail : half_tail;
}

namespace {
// Continued fraction for the incomplete beta function (Lentz's method).
double beta_cf(double a, double b, double x) {
  const int max_iter = 300;
  const double eps = 3.0e-14;
  const double fpmin = 1.0e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < fpmin) d = fpmin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= max_iter; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < fpmin) d = fpmin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < fpmin) c = fpmin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < fpmin) d = fpmin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < fpmin) c = fpmin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < eps) break;
  }
  return h;
}
}  // namespace

double incomplete_beta(double a, double b, double x) {
  DRCELL_CHECK(a > 0.0 && b > 0.0);
  DRCELL_CHECK(x >= 0.0 && x <= 1.0);
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                          a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

}  // namespace drcell
