#include "linalg/decompositions.h"

#include <algorithm>
#include <cmath>
#include <numeric>

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

QR::QR(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  DRCELL_CHECK_MSG(m >= n, "QR requires rows >= cols");
  // Modified Gram-Schmidt is adequate for the well-conditioned, regularised
  // systems this library produces, and keeps thin Q directly.
  q = a;
  r = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    // In-place strided views: no per-column std::vector copies in the loop.
    const auto qj = q.col_view(j);
    for (std::size_t i = 0; i < j; ++i) {
      const ConstColumnView qi = q.col_view(i);
      const double rij = dot(qi, qj);
      r(i, j) = rij;
      for (std::size_t k = 0; k < m; ++k) qj[k] -= rij * qi[k];
    }
    const double njj = norm2(qj);
    DRCELL_CHECK_MSG(njj > 1e-300, "rank-deficient matrix in QR");
    r(j, j) = njj;
    for (std::size_t k = 0; k < m; ++k) qj[k] /= njj;
  }
}

std::vector<double> QR::solve(std::span<const double> b) const {
  DRCELL_CHECK(b.size() == q.rows());
  const std::size_t n = r.rows();
  // y = Qᵀ b
  std::vector<double> y(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < q.rows(); ++i) s += q(i, j) * b[i];
    y[j] = s;
  }
  // Back substitution R x = y.
  std::vector<double> x(n);
  for (std::size_t jj = n; jj-- > 0;) {
    double s = y[jj];
    for (std::size_t k = jj + 1; k < n; ++k) s -= r(jj, k) * x[k];
    x[jj] = s / r(jj, jj);
  }
  return x;
}

SVD::SVD(const Matrix& a, int max_sweeps, double tol) {
  // One-sided Jacobi on the columns of a working copy W: rotate column pairs
  // until all are mutually orthogonal; then s_i = ||w_i||, u_i = w_i / s_i.
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  DRCELL_CHECK_MSG(m > 0 && n > 0, "SVD of empty matrix");
  // Work on AT if the matrix is wide so that rows >= cols.
  const bool transposed_input = m < n;
  Matrix w = transposed_input ? a.transposed() : a;
  const std::size_t wr = w.rows();
  const std::size_t wc = w.cols();
  Matrix vt = Matrix::identity(wc);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    for (std::size_t p = 0; p + 1 < wc; ++p) {
      for (std::size_t q_ = p + 1; q_ < wc; ++q_) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (std::size_t i = 0; i < wr; ++i) {
          const double wp = w(i, p);
          const double wq = w(i, q_);
          app += wp * wp;
          aqq += wq * wq;
          apq += wp * wq;
        }
        if (std::fabs(apq) <= tol * std::sqrt(app * aqq) ||
            (app == 0.0 && aqq == 0.0)) {
          continue;
        }
        converged = false;
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < wr; ++i) {
          const double wp = w(i, p);
          const double wq = w(i, q_);
          w(i, p) = c * wp - s * wq;
          w(i, q_) = s * wp + c * wq;
        }
        for (std::size_t i = 0; i < wc; ++i) {
          const double vp = vt(i, p);
          const double vq = vt(i, q_);
          vt(i, p) = c * vp - s * vq;
          vt(i, q_) = s * vp + c * vq;
        }
      }
    }
    if (converged) break;
  }

  // Extract singular values and sort descending.
  std::vector<double> sv(wc);
  for (std::size_t j = 0; j < wc; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < wr; ++i) s += w(i, j) * w(i, j);
    sv[j] = std::sqrt(s);
  }
  std::vector<std::size_t> order(wc);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return sv[i] > sv[j]; });

  Matrix uu(wr, wc);
  Matrix vv(wc, wc);
  singular.resize(wc);
  for (std::size_t jj = 0; jj < wc; ++jj) {
    const std::size_t src = order[jj];
    singular[jj] = sv[src];
    const double inv = sv[src] > 0.0 ? 1.0 / sv[src] : 0.0;
    for (std::size_t i = 0; i < wr; ++i) uu(i, jj) = w(i, src) * inv;
    for (std::size_t i = 0; i < wc; ++i) vv(i, jj) = vt(i, src);
  }
  if (transposed_input) {
    u = std::move(vv);
    v = std::move(uu);
  } else {
    u = std::move(uu);
    v = std::move(vv);
  }
}

std::size_t SVD::rank(double rel_tol) const {
  if (singular.empty() || singular[0] == 0.0) return 0;
  const double cutoff = singular[0] * rel_tol;
  std::size_t r = 0;
  for (double s : singular)
    if (s > cutoff) ++r;
  return r;
}

Matrix SVD::reconstruct() const {
  Matrix us = u;
  for (std::size_t j = 0; j < singular.size(); ++j)
    for (std::size_t i = 0; i < us.rows(); ++i) us(i, j) *= singular[j];
  return us.matmul(v.transposed());
}

}  // namespace drcell
