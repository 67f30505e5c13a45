// The ridge solver behind ALS matrix completion. The ALS engine runs
// thousands of rank-r ridge solves per sensing cycle (its half-sweeps and
// its leave-one-out re-solves), so the normal equations + Cholesky path is
// the hot one. It lives in RidgeSolver: a workspace sized
// once to the rank that accumulates the Gram and right-hand side straight
// from caller-owned rows and factors in place — no design-matrix copy, no
// per-solve allocation, no compute-backend dispatch (a sub-tile Gram gains
// nothing from a tuned GEMM). Its factorisation is the one Cholesky kernel
// of linalg/decompositions.h, so Cholesky and the ALS engine share one
// arithmetic, identical under every DRCELL_BACKEND.
//
// The factor step and the right-hand-side step are separate, so one
// factorisation serves many right-hand sides. An ALS half-sweep uses that
// to factor once per run of equal observation lists instead of once per row
// or column: two indices that observe the same list accumulate the same
// design rows in the same order, with the same zero skip and the same ridge
// weight, so their Gram, jitter-ladder path and factor are the same bits —
// sharing the factor changes no output byte. It then solves a tile of the
// run's right-hand sides as one block (solve_factored_block), which runs
// each one's substitutions in the same order as solve_factored, so the
// solutions are the same bits too.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace drcell {

/// Reusable ridge-regression workspace for many small systems of one width:
///   solver.reset();
///   for each observation: solver.add_row(a_row, b);
///   x = solver.solve(lambda);
/// solves (AᵀA + λI) x = Aᵀb for the rows added since the last reset.
/// solve() is factor() followed by solve_factored(). To solve many
/// right-hand sides over the same rows, accumulate only the Gram and solve
/// them as one block against the held factor:
///   solver.reset();
///   for each observation: solver.add_gram_row(a_row);
///   solver.factor(lambda);
///   block[k * count + t] = Σ_rows a_row[k] · b_t[row]  (ascending rows)
///   solver.solve_factored_block(block, count);
/// which leaves in column t of the block the bits of a fresh solve() of the
/// system with targets b_t.
///
/// Arithmetic contract (bit-identical to forming the Gram with
/// kernels::matmul_transposed_self_add and factoring it with Cholesky):
/// rows accumulate in the order they are added; a row skips its
/// contribution to Gram row i when its i-th entry is exactly 0; the
/// right-hand side accumulates with no skip. A Gram that is numerically
/// semidefinite gets a scale-aware jitter of 1e-12·max(trace/n, 1) on the
/// diagonal, escalated ×100 for up to 8 retries; if the 9th factorisation
/// still fails (e.g. a non-finite row), factor() throws CheckError.
/// Not thread-safe: give each thread (pool chunk) its own solver.
class RidgeSolver {
 public:
  explicit RidgeSolver(std::size_t n);

  /// Zeroes the accumulated Gram and right-hand side.
  void reset();

  /// Accumulates one observation: a design row of n entries and its
  /// target. The row is read, never retained.
  void add_row(std::span<const double> row, double b);
  /// Accumulates only the Gram contribution of a design row, for systems
  /// whose right-hand sides are solved with solve_factored_block().
  void add_gram_row(std::span<const double> row);

  /// Factors the accumulated Gram with ridge weight lambda >= 0 and holds
  /// the factor until the next factor(). Consumes the Gram (lambda and any
  /// jitter land on it), so reset() before accumulating the next one.
  /// Requires lambda > 0 or full column rank (up to the jitter ladder).
  void factor(double lambda);

  /// Solves the held factor against the accumulated right-hand side. The
  /// returned view stays valid until the next solve.
  std::span<const double> solve_factored();

  /// Solves the held factor against `count` right-hand sides stored k-major
  /// in `block` (entry k of right-hand side t at block[k * count + t]), in
  /// place: column t ends up holding the bits solve_factored() returns for
  /// right-hand side t. Each substitution step runs across the whole block,
  /// so the compiler vectorises over the right-hand sides.
  void solve_factored_block(std::span<double> block, std::size_t count) const;

  /// factor(lambda), then solve_factored().
  std::span<const double> solve(double lambda) {
    factor(lambda);
    return solve_factored();
  }

 private:
  std::size_t n_;
  std::vector<double> gram_;    // n x n row-major, lower triangle used
  std::vector<double> rhs_;     // Aᵀb
  std::vector<double> factor_;  // Cholesky factor, lower triangle used
  std::vector<double> y_;       // forward-substitution result
  std::vector<double> x_;       // solution
};

}  // namespace drcell
