#include "linalg/solvers.h"

#include <algorithm>

#include "linalg/decompositions.h"

namespace drcell {

RidgeSolver::RidgeSolver(std::size_t n)
    : n_(n),
      gram_(n * n, 0.0),
      rhs_(n, 0.0),
      factor_(n * n, 0.0),
      y_(n, 0.0),
      x_(n, 0.0) {}

void RidgeSolver::reset() {
  std::fill(gram_.begin(), gram_.end(), 0.0);
  reset_rhs();
}

void RidgeSolver::reset_rhs() { std::fill(rhs_.begin(), rhs_.end(), 0.0); }

void RidgeSolver::add_row(std::span<const double> row, double b) {
  DRCELL_DCHECK(row.size() == n_);
  const double* r = row.data();
  double* g = gram_.data();
  double* rhs = rhs_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const double ri = r[i];
    rhs[i] += ri * b;
    if (ri == 0.0) continue;
    double* gi = g + i * n_;
    for (std::size_t j = 0; j <= i; ++j) gi[j] += ri * r[j];
  }
}

void RidgeSolver::factor(double lambda) {
  DRCELL_CHECK(lambda >= 0.0);
  double* g = gram_.data();
  for (std::size_t i = 0; i < n_; ++i) g[i * n_ + i] += lambda;
  // A fixed lambda can be negligible against extreme data scales, leaving
  // the Gram matrix numerically semidefinite. Escalate a scale-aware jitter
  // until the factorisation succeeds.
  double trace = 0.0;
  for (std::size_t i = 0; i < n_; ++i) trace += g[i * n_ + i];
  double jitter = 1e-12 * std::max(trace / static_cast<double>(n_), 1.0);
  bool factored = kernels::cholesky_factor(g, factor_.data(), n_);
  for (int attempt = 0; attempt < 8 && !factored; ++attempt) {
    for (std::size_t i = 0; i < n_; ++i) g[i * n_ + i] += jitter;
    jitter *= 100.0;
    factored = kernels::cholesky_factor(g, factor_.data(), n_);
  }
  DRCELL_CHECK_MSG(factored, "matrix is not positive definite");
}

std::span<const double> RidgeSolver::solve_factored() {
  kernels::cholesky_forward(factor_.data(), rhs_.data(), y_.data(), n_);
  kernels::cholesky_back(factor_.data(), y_.data(), x_.data(), n_);
  return x_;
}

}  // namespace drcell
