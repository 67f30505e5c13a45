#include "linalg/decompositions.h"

#include <cmath>

namespace drcell {

namespace kernels {

bool cholesky_factor(const double* a, double* l, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = l + j * n;
    double d = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) d -= lj[k] * lj[k];
    if (!(d > 0.0)) return false;
    const double ljj = std::sqrt(d);
    l[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double* li = l + i * n;
      double s = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s / ljj;
    }
  }
  return true;
}

void cholesky_forward(const double* l, const double* b, double* y,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
  }
}

void cholesky_back(const double* l, const double* y, double* x,
                   std::size_t n) {
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l[k * n + ii] * x[k];
    x[ii] = s / l[ii * n + ii];
  }
}

}  // namespace kernels

Cholesky::Cholesky(const Matrix& a) {
  DRCELL_CHECK_MSG(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  l = Matrix(n, n);
  DRCELL_CHECK_MSG(
      kernels::cholesky_factor(a.data().data(), l.data().data(), n),
      "matrix is not positive definite");
}

std::vector<double> Cholesky::forward(std::span<const double> b) const {
  const std::size_t n = l.rows();
  DRCELL_CHECK(b.size() == n);
  std::vector<double> y(n);
  kernels::cholesky_forward(l.data().data(), b.data(), y.data(), n);
  return y;
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  const std::size_t n = l.rows();
  std::vector<double> y = forward(b);
  std::vector<double> x(n);
  kernels::cholesky_back(l.data().data(), y.data(), x.data(), n);
  return x;
}

}  // namespace drcell
