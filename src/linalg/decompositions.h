// The Cholesky decomposition behind the GP dataset generator (Cholesky of
// covariance kernels) and the ridge solves of ALS matrix completion.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace drcell {

namespace kernels {

// The one Cholesky arithmetic of the library, on raw row-major n x n
// buffers. Both `Cholesky` and `RidgeSolver` (linalg/solvers.h) run it, so
// the GP draws and the ALS solves share every operation and its order. Only
// the lower triangle (diagonal included) of `a` is read and of `l` written.

/// Factors a = l lᵀ. Returns false — with `l` partly written — as soon as a
/// pivot is not strictly positive (a is not numerically SPD, or non-finite).
bool cholesky_factor(const double* a, double* l, std::size_t n);

/// Forward substitution l y = b.
void cholesky_forward(const double* l, const double* b, double* y,
                      std::size_t n);

/// Back substitution lᵀ x = y.
void cholesky_back(const double* l, const double* y, double* x,
                   std::size_t n);

}  // namespace kernels

/// Cholesky factorisation A = L Lᵀ of a symmetric positive-definite matrix.
/// Throws CheckError if A is not square or not (numerically) SPD.
struct Cholesky {
  explicit Cholesky(const Matrix& a);

  /// Solves A x = b using the factorisation.
  std::vector<double> solve(std::span<const double> b) const;
  /// L y = b (forward substitution).
  std::vector<double> forward(std::span<const double> b) const;

  Matrix l;  ///< lower-triangular factor
};

}  // namespace drcell
