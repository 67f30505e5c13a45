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
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
}

void RidgeSolver::add_row(std::span<const double> row, double b) {
  add_gram_row(row);
  for (std::size_t i = 0; i < n_; ++i) rhs_[i] += row[i] * b;
}

void RidgeSolver::add_gram_row(std::span<const double> row) {
  DRCELL_DCHECK(row.size() == n_);
  const double* r = row.data();
  double* g = gram_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const double ri = r[i];
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

namespace {
// y[t] -= a * x[t] over one block row: the inner step of both block
// substitutions.
void subtract_scaled(double* __restrict y, const double* __restrict x,
                     double a, std::size_t count) {
  for (std::size_t t = 0; t < count; ++t) y[t] -= a * x[t];
}

void divide(double* y, double d, std::size_t count) {
  for (std::size_t t = 0; t < count; ++t) y[t] /= d;
}
}  // namespace

// The block form of kernels::cholesky_forward and cholesky_back with the
// right-hand-side loop innermost. Row i of the block starts as b_i and
// takes the same subtractions, in the same k order, and the same division
// as the scalar kernels' running sum s, so every entry keeps its bits.
void RidgeSolver::solve_factored_block(std::span<double> block,
                                       std::size_t count) const {
  DRCELL_DCHECK(block.size() == n_ * count);
  const double* l = factor_.data();
  double* y = block.data();
  // Forward substitution l y = b, in place.
  for (std::size_t i = 0; i < n_; ++i) {
    double* yi = y + i * count;
    for (std::size_t k = 0; k < i; ++k)
      subtract_scaled(yi, y + k * count, l[i * n_ + k], count);
    divide(yi, l[i * n_ + i], count);
  }
  // Back substitution lᵀ x = y, in place.
  for (std::size_t ii = n_; ii-- > 0;) {
    double* xi = y + ii * count;
    for (std::size_t k = ii + 1; k < n_; ++k)
      subtract_scaled(xi, y + k * count, l[k * n_ + ii], count);
    divide(xi, l[ii * n_ + ii], count);
  }
}

}  // namespace drcell
