// Matrix decompositions: Cholesky, Householder QR and one-sided Jacobi SVD.
// These back the GP dataset generator (Cholesky of covariance kernels), the
// ridge solvers used by ALS matrix completion, and spectral diagnostics.
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

/// Householder QR factorisation A = Q R (A is rows x cols, rows >= cols).
struct QR {
  explicit QR(const Matrix& a);

  /// Least-squares solution of min ||A x - b||₂ via R x = Qᵀ b.
  std::vector<double> solve(std::span<const double> b) const;

  Matrix q;  ///< rows x cols with orthonormal columns (thin Q)
  Matrix r;  ///< cols x cols upper triangular
};

/// Thin singular value decomposition A = U diag(s) Vᵀ via one-sided Jacobi
/// rotations. Singular values are returned in descending order.
struct SVD {
  explicit SVD(const Matrix& a, int max_sweeps = 60, double tol = 1e-12);

  Matrix u;                       ///< rows x k, orthonormal columns
  std::vector<double> singular;   ///< k singular values, descending
  Matrix v;                       ///< cols x k, orthonormal columns

  /// Effective numerical rank at the given relative threshold.
  std::size_t rank(double rel_tol = 1e-10) const;
  /// Reconstructs U diag(s) Vᵀ (for testing).
  Matrix reconstruct() const;
};

}  // namespace drcell
