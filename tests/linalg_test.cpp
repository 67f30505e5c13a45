#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "linalg/decompositions.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/solvers.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace drcell {
namespace {

using testing::make_matrix;

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix a = random_normal_matrix(n, n, rng);
  Matrix spd = a.matmul_transposed_self(a);  // AᵀA
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_EQ(m(0, 1), -2.0);
}

TEST(Matrix, OutOfRangeIndexThrows) {
  Matrix m(2, 2);
  // at() is checked in every build mode; operator() only when DCHECKs are
  // active (debug / DRCELL_ENABLE_DCHECKS builds).
  EXPECT_THROW(m.at(2, 0), CheckError);
  EXPECT_THROW(m.at(0, 2), CheckError);
#if DRCELL_DCHECKS_ACTIVE
  EXPECT_THROW(m(2, 0), CheckError);
  EXPECT_THROW(m(0, 2), CheckError);
#endif
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(1);
  const Matrix m = random_normal_matrix(3, 5, rng);
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a = make_matrix({{1, 2}, {3, 4}});
  Matrix b = make_matrix({{4, 3}, {2, 1}});
  const Matrix sum = a + b;
  EXPECT_EQ(sum(0, 0), 5.0);
  EXPECT_EQ(sum(1, 1), 5.0);
  const Matrix diff = a - b;
  EXPECT_EQ(diff(0, 0), -3.0);
  const Matrix scaled = a * 2.0;
  EXPECT_EQ(scaled(1, 0), 6.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, CheckError);
  EXPECT_THROW(a.matmul(Matrix(3, 1)), CheckError);
}

TEST(Matrix, MatmulMatchesHandComputation) {
  Matrix a = make_matrix({{1, 2}, {3, 4}});
  Matrix b = make_matrix({{5, 6}, {7, 8}});
  const Matrix c = a.matmul(b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulTransposedSelfEqualsExplicit) {
  Rng rng(2);
  const Matrix a = random_normal_matrix(4, 3, rng);
  const Matrix b = random_normal_matrix(4, 2, rng);
  const Matrix expected = a.transposed().matmul(b);
  const Matrix actual = a.matmul_transposed_self(b);
  EXPECT_NEAR((expected - actual).max_abs(), 0.0, 1e-12);
}

TEST(Matrix, MatmulTransposedSelfAddAccumulatesRowMajor) {
  Rng rng(12);
  const Matrix a = random_normal_matrix(5, 3, rng);
  const Matrix b = random_normal_matrix(5, 4, rng);
  // Accumulating the whole product into a zeroed target replays exactly the
  // per-row accumulation — the sample-major gradient contract.
  Matrix whole(3, 4);
  a.matmul_transposed_self_add(b, whole);
  Matrix row_by_row(3, 4);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    Matrix ar(1, a.cols()), br(1, b.cols());
    for (std::size_t c = 0; c < a.cols(); ++c) ar(0, c) = a(r, c);
    for (std::size_t c = 0; c < b.cols(); ++c) br(0, c) = b(r, c);
    ar.matmul_transposed_self_add(br, row_by_row);
  }
  EXPECT_EQ(whole, row_by_row);
  EXPECT_EQ(whole, a.matmul_transposed_self(b));
}

TEST(Matrix, MatmulTransposedOtherEqualsExplicit) {
  Rng rng(13);
  // 7 columns exercise the 4-wide unrolled dots plus the remainder path.
  const Matrix a = random_normal_matrix(5, 6, rng);
  const Matrix b = random_normal_matrix(7, 6, rng);
  const Matrix expected = a.matmul(b.transposed());
  Matrix actual;
  a.matmul_transposed_other_into(b, actual);
  ASSERT_EQ(actual.rows(), 5u);
  ASSERT_EQ(actual.cols(), 7u);
  EXPECT_NEAR((expected - actual).max_abs(), 0.0, 1e-12);

  // A correctly shaped output is overwritten in place, not accumulated.
  Matrix reused(5, 7, 99.0);
  a.matmul_transposed_other_into(b, reused);
  EXPECT_EQ(reused, actual);
  EXPECT_THROW(a.matmul_transposed_other_into(Matrix(7, 5), actual),
               CheckError);
}

TEST(Matrix, MatmulRowsAreBatchIndependent) {
  // The batched-training determinism contract at the kernel level: each
  // output row of the blocked kernel (and of A·Bᵀ) is bit-identical whether
  // the row is multiplied alone or stacked into a larger batch — for shapes
  // spanning multiple i/k/j tiles and the sub-8-column remainder path.
  Rng rng(14);
  for (const std::size_t n : {3u, 37u, 150u}) {
    const Matrix a = random_normal_matrix(40, n, rng);
    const Matrix bt = random_normal_matrix(n, n + 5, rng);
    const Matrix whole = a.matmul(bt);
    Matrix whole_t;
    a.matmul_transposed_other_into(bt.transposed(), whole_t);
    for (std::size_t r = 0; r < a.rows(); r += 7) {
      Matrix row(1, n);
      for (std::size_t c = 0; c < n; ++c) row(0, c) = a(r, c);
      const Matrix single = row.matmul(bt);
      for (std::size_t c = 0; c < whole.cols(); ++c) {
        ASSERT_EQ(whole(r, c), single(0, c)) << n << " " << r << " " << c;
        ASSERT_EQ(whole_t(r, c), single(0, c)) << n << " " << r << " " << c;
      }
    }
  }
}

TEST(Matrix, NormsAndSums) {
  const Matrix m = make_matrix({{3, -4}});
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
  EXPECT_EQ(Matrix().max_abs(), 0.0);
}

TEST(Matrix, HasNonFiniteDetectsNanAndInf) {
  Matrix m(2, 2);
  EXPECT_FALSE(m.has_non_finite());
  m(0, 0) = std::nan("");
  EXPECT_TRUE(m.has_non_finite());
  m(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(m.has_non_finite());
}

TEST(Cholesky, ReconstructsMatrix) {
  Rng rng(4);
  const Matrix a = random_spd(5, rng);
  const Cholesky chol(a);
  const Matrix rec = chol.l.matmul(chol.l.transposed());
  EXPECT_NEAR((rec - a).max_abs(), 0.0, 1e-9);
}

TEST(Cholesky, SolvesLinearSystem) {
  Rng rng(5);
  const Matrix a = random_spd(6, rng);
  std::vector<double> x_true(6);
  for (std::size_t i = 0; i < 6; ++i) x_true[i] = std::sin(i + 1.0);
  Matrix x_col(6, 1);
  for (std::size_t i = 0; i < 6; ++i) x_col(i, 0) = x_true[i];
  const Matrix b = a.matmul(x_col);
  const auto x = Cholesky(a).solve(b.data());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Cholesky, RejectsNonSpd) {
  Matrix not_spd = make_matrix({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky{not_spd}, CheckError);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky{Matrix(2, 3)}, CheckError);
}

// Reference ridge solve composed from the library's separate parts: the
// Gram through the native kernel, Cholesky on the full matrix, and the
// jitter ladder (escalated ×100 for up to 8 retries, the 9th failure
// throws). `retries` reports how many jitter steps fired.
std::vector<double> ridge_solve_oracle(const Matrix& a,
                                       std::span<const double> b,
                                       double lambda, int* retries = nullptr) {
  const std::size_t n = a.cols();
  Matrix g(n, n);
  kernels::matmul_transposed_self_add(a, a, g);
  for (std::size_t i = 0; i < n; ++i) g(i, i) += lambda;
  std::vector<double> rhs(n, 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < n; ++c) rhs[c] += a(r, c) * b[r];
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += g(i, i);
  double jitter = 1e-12 * std::max(trace / static_cast<double>(n), 1.0);
  for (int attempt = 0; attempt < 8; ++attempt) {
    try {
      if (retries) *retries = attempt;
      return Cholesky(g).solve(rhs);
    } catch (const CheckError&) {
      for (std::size_t i = 0; i < n; ++i) g(i, i) += jitter;
      jitter *= 100.0;
    }
  }
  if (retries) *retries = 8;
  return Cholesky(g).solve(rhs);
}

// Bitwise equality (distinguishes -0.0 from 0.0 and compares NaN payloads).
void expect_same_bits(std::span<const double> got,
                      std::span<const double> want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

// Accumulates every row of A (in ascending order) into `solver` and solves.
std::span<const double> solve_rows(RidgeSolver& solver, const Matrix& a,
                                   std::span<const double> b, double lambda) {
  solver.reset();
  for (std::size_t r = 0; r < a.rows(); ++r) solver.add_row(a.row(r), b[r]);
  return solver.solve(lambda);
}

// Runs the system through a reused RidgeSolver and through a fresh one,
// checking both against the oracle bit for bit.
void expect_matches_oracle(RidgeSolver& solver, const Matrix& a,
                           std::span<const double> b, double lambda) {
  const auto want = ridge_solve_oracle(a, b, lambda);
  expect_same_bits(solve_rows(solver, a, b, lambda), want);
  RidgeSolver fresh(a.cols());
  expect_same_bits(solve_rows(fresh, a, b, lambda), want);
}

TEST(RidgeSolver, MatchesOracleBitwiseAcrossRanksWithZeroEntries) {
  Rng rng(41);
  for (std::size_t rank = 1; rank <= 8; ++rank) {
    SCOPED_TRACE(rank);
    RidgeSolver solver(rank);  // reused across every system of this rank
    for (std::size_t rows : {std::size_t{1}, rank, 3 * rank + 2}) {
      Matrix a = random_normal_matrix(rows, rank, rng);
      // Exact zeros (including a whole zero row) exercise the Gram's
      // zero skip.
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < rank; ++c)
          if ((r + 2 * c) % 3 == 0 || r == rows / 2) a(r, c) = 0.0;
      std::vector<double> b(rows);
      for (auto& v : b) v = rng.normal();
      expect_matches_oracle(solver, a, b,
                            0.005 * static_cast<double>(rows));
    }
  }
}

TEST(RidgeSolver, ZeroSkipIsObservableAndKept) {
  // Row [inf, 0]: skipping the zero entry keeps Gram(1, 0) at 0 instead of
  // 0·inf = NaN, so the factorisation succeeds (with a non-finite result)
  // where a no-skip Gram would fail. The solver must follow the skip.
  const double inf = std::numeric_limits<double>::infinity();
  const Matrix a = make_matrix({{inf, 0.0}, {1.0, 2.0}});
  const std::vector<double> b{1.0, -1.0};
  ASSERT_NO_THROW(ridge_solve_oracle(a, b, 0.1));
  RidgeSolver solver(2);
  expect_matches_oracle(solver, a, b, 0.1);
}

TEST(RidgeSolver, JitterLadderOnSemidefiniteGramMatchesOracle) {
  // Duplicated columns with lambda = 0: column 0's squared norm is 25, so
  // its pivot is exactly 5 and column 1's pivot is exactly 0 — the plain
  // factorisation fails and the jitter ladder must fire.
  const Matrix a = make_matrix({{2.0, 2.0, 0.5},
                                {1.0, 1.0, 0.0},
                                {2.0, 2.0, -1.0},
                                {0.0, 0.0, 3.0},
                                {4.0, 4.0, 1.0}});
  const std::vector<double> b{1.0, 0.0, -2.0, 0.5, 3.0};
  int retries = 0;
  ridge_solve_oracle(a, b, 0.0, &retries);
  ASSERT_GE(retries, 1);
  RidgeSolver solver(3);
  expect_matches_oracle(solver, a, b, 0.0);
  // A rank-1 system of a single all-ones row: the same ladder at rank 4.
  const Matrix ones = make_matrix({{1.0, 1.0, 1.0, 1.0}});
  const std::vector<double> one{2.0};
  ridge_solve_oracle(ones, one, 0.0, &retries);
  ASSERT_GE(retries, 1);
  RidgeSolver solver4(4);
  expect_matches_oracle(solver4, ones, one, 0.0);
}

TEST(RidgeSolver, NonFiniteRowThrowsAfterTheLadder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Matrix a =
      make_matrix({{1.0, 0.5, -1.0}, {nan, 2.0, 0.0}, {0.0, 1.0, 1.0}});
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_THROW(ridge_solve_oracle(a, b, 0.1), CheckError);
  RidgeSolver solver(3);
  EXPECT_THROW(solve_rows(solver, a, b, 0.1), CheckError);
  // The workspace stays usable after the failure.
  const Matrix ok =
      make_matrix({{1.0, 0.0, 2.0}, {0.0, 1.0, -1.0}, {3.0, 1.0, 0.0}});
  expect_matches_oracle(solver, ok, b, 0.1);
}

// Right-hand-side counts of the block tests: one, a few, the ALS tile
// width (16) and one past it.
constexpr std::size_t kBlockCounts[] = {1, 2, 3, 7, 16, 17};

// Factors A once through the Gram-only path (add_gram_row(), then
// factor()), accumulates `count` right-hand sides as one k-major block and
// solves them with solve_factored_block(). Each column of the block must be
// bit for bit what a fresh fused solve() (add_row(), factor(),
// solve_factored()) returns for the same system.
void expect_block_matches_fused(const Matrix& a, double lambda,
                                std::size_t count, Rng& rng) {
  SCOPED_TRACE(count);
  const std::size_t n = a.cols();
  std::vector<std::vector<double>> b(count, std::vector<double>(a.rows()));
  for (auto& bt : b)
    for (auto& v : bt) v = rng.normal();

  RidgeSolver blocked(n), fused(n);
  blocked.reset();
  for (std::size_t r = 0; r < a.rows(); ++r) blocked.add_gram_row(a.row(r));
  blocked.factor(lambda);
  std::vector<double> block(n * count, 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t t = 0; t < count; ++t)
        block[k * count + t] += a(r, k) * b[t][r];
  blocked.solve_factored_block(block, count);

  for (std::size_t t = 0; t < count; ++t) {
    SCOPED_TRACE(t);
    fused.reset();
    for (std::size_t r = 0; r < a.rows(); ++r) fused.add_row(a.row(r), b[t][r]);
    std::vector<double> got(n);
    for (std::size_t k = 0; k < n; ++k) got[k] = block[k * count + t];
    expect_same_bits(got, fused.solve(lambda));
  }
}

TEST(RidgeSolver, FactorOnceSolveManyMatchesFusedAcrossRanks) {
  Rng rng(43);
  for (std::size_t rank = 1; rank <= 8; ++rank) {
    SCOPED_TRACE(rank);
    for (std::size_t rows : {std::size_t{1}, rank, 3 * rank + 2}) {
      Matrix a = random_normal_matrix(rows, rank, rng);
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < rank; ++c)
          if ((r + c) % 3 == 1 || r == rows / 2) a(r, c) = 0.0;
      for (std::size_t count : kBlockCounts)
        expect_block_matches_fused(a, 0.005 * static_cast<double>(rows),
                                   count, rng);
    }
  }
  // The zero skip is observable with an infinite entry: the Gram factors,
  // with non-finite solutions, only because the skip keeps 0·inf out.
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t count : kBlockCounts)
    expect_block_matches_fused(make_matrix({{inf, 0.0}, {1.0, 2.0}}), 0.1,
                               count, rng);
}

TEST(RidgeSolver, FactorOnceSolveManyAfterTheJitterLadder) {
  // Duplicated columns at lambda = 0: the held factor is the one the
  // jitter ladder produced.
  const Matrix a = make_matrix({{2.0, 2.0, 0.5},
                                {1.0, 1.0, 0.0},
                                {2.0, 2.0, -1.0},
                                {0.0, 0.0, 3.0},
                                {4.0, 4.0, 1.0}});
  int retries = 0;
  ridge_solve_oracle(a, std::vector<double>(a.rows(), 1.0), 0.0, &retries);
  ASSERT_GE(retries, 1);
  Rng rng(44);
  for (std::size_t count : kBlockCounts)
    expect_block_matches_fused(a, 0.0, count, rng);
}

TEST(RidgeSolver, FactorStepThrowsOnNonFiniteRow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Matrix a =
      make_matrix({{1.0, 0.5, -1.0}, {nan, 2.0, 0.0}, {0.0, 1.0, 1.0}});
  const std::vector<double> b{1.0, 2.0, 3.0};
  RidgeSolver solver(3);
  solver.reset();
  for (std::size_t r = 0; r < a.rows(); ++r) solver.add_row(a.row(r), b[r]);
  EXPECT_THROW(solver.factor(0.1), CheckError);
  // The workspace stays usable after the failure.
  const Matrix ok =
      make_matrix({{1.0, 0.0, 2.0}, {0.0, 1.0, -1.0}, {3.0, 1.0, 0.0}});
  solver.reset();
  for (std::size_t r = 0; r < ok.rows(); ++r) solver.add_row(ok.row(r), b[r]);
  solver.factor(0.1);
  expect_same_bits(solver.solve_factored(), ridge_solve_oracle(ok, b, 0.1));
  Rng rng(45);
  expect_block_matches_fused(ok, 0.1, 3, rng);
}

TEST(Solvers, RidgeShrinksTowardsZero) {
  Rng rng(13);
  const Matrix a = random_normal_matrix(20, 3, rng);
  std::vector<double> b(20);
  for (auto& v : b) v = rng.normal();
  RidgeSolver solver(3);
  const auto s0 = solve_rows(solver, a, b, 1e-9);
  const std::vector<double> x0(s0.begin(), s0.end());
  const auto x1 = solve_rows(solver, a, b, 100.0);
  const auto squared_norm = [](std::span<const double> v) {
    double sum = 0.0;
    for (const double x : v) sum += x * x;
    return sum;
  };
  EXPECT_LT(squared_norm(x1), squared_norm(x0));
}

TEST(Solvers, RidgeHandlesUnderdeterminedWithRegularisation) {
  // 2 rows, 3 unknowns: only solvable thanks to lambda > 0.
  Matrix a = make_matrix({{1, 0, 1}, {0, 1, 1}});
  const std::vector<double> b{1.0, 2.0};
  RidgeSolver solver(3);
  const auto x = solve_rows(solver, a, b, 0.1);
  EXPECT_EQ(x.size(), 3u);
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace drcell
