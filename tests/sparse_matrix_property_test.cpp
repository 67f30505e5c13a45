// Property/fuzz coverage for SparseRowMatrix (linalg/sparse_matrix.h):
// randomized shapes and densities against the dense kernels as oracle
// (bit-identity under the native backend — the gather contract), the
// degenerate densities (0%, 100%, single-element rows, explicit stored
// zeros, empty shapes), and the malformed-append preconditions, which must
// trip DRCELL_DCHECK in checked builds (unsorted columns, duplicate
// columns, decreasing rows, out-of-range indices).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/backend.h"
#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/rng.h"

namespace drcell {
namespace {

using testing::to_dense;

Matrix random_dense(std::size_t rows, std::size_t cols, double density,
                    Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.bernoulli(density) ? rng.normal() : 0.0;
  return m;
}

SparseRowMatrix to_sparse(const Matrix& dense) {
  SparseRowMatrix s(dense.rows(), dense.cols());
  for (std::size_t r = 0; r < dense.rows(); ++r)
    for (std::size_t c = 0; c < dense.cols(); ++c)
      if (dense(r, c) != 0.0) s.append(r, c, dense(r, c));
  return s;
}

class SparseMatrixProperty : public ::testing::Test {
 protected:
  // The bit-identity oracle assumes an exact-contract backend; pin native
  // and restore the suite's prior selection afterwards.
  void SetUp() override {
    prev_ = BackendRegistry::active().name();
    BackendRegistry::set_active("native");
  }
  void TearDown() override { BackendRegistry::set_active(prev_); }

 private:
  std::string prev_;
};

TEST_F(SparseMatrixProperty, FuzzGatherMatchesDenseAcrossShapesAndDensities) {
  // 60 random (shape, density) draws: to_dense round-trips, nonzero
  // accounting, and both gather GEMMs bit-identical to the dense kernels.
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t rows = 1 + rng.uniform_index(40);
    const std::size_t cols = 1 + rng.uniform_index(50);
    const std::size_t inner = 1 + rng.uniform_index(12);
    const double density =
        std::vector<double>{0.0, 0.01, 0.1, 0.5, 1.0}[rng.uniform_index(5)];
    const Matrix dense = random_dense(rows, cols, density, rng);
    const SparseRowMatrix sparse = to_sparse(dense);

    EXPECT_EQ(sparse.rows(), rows);
    EXPECT_EQ(sparse.cols(), cols);
    EXPECT_EQ(to_dense(sparse), dense) << "trial " << trial;

    std::size_t nnz = 0;
    for (const double v : dense.data()) nnz += v != 0.0;
    EXPECT_EQ(sparse.nonzeros(), nnz);

    const Matrix b = random_dense(cols, inner, 1.0, rng);
    Matrix from_sparse, from_dense;
    sparse.matmul_into(b, from_sparse);
    dense.matmul_into(b, from_dense);
    EXPECT_EQ(from_sparse, from_dense) << "trial " << trial;

    const Matrix g = random_dense(rows, inner, 1.0, rng);
    Matrix acc_sparse = random_dense(cols, inner, 1.0, rng);
    Matrix acc_dense = acc_sparse;
    sparse.matmul_transposed_self_add(g, acc_sparse);
    dense.matmul_transposed_self_add(g, acc_dense);
    EXPECT_EQ(acc_sparse, acc_dense) << "trial " << trial;
  }
}

TEST_F(SparseMatrixProperty, SingleElementRowsMatchDense) {
  // The one-hot selection-state shape: exactly one entry per row.
  Rng rng(7);
  const std::size_t rows = 24, cols = 30;
  Matrix dense(rows, cols);
  SparseRowMatrix sparse(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t c = rng.uniform_index(cols);
    dense(r, c) = 1.0;
    sparse.append(r, c, 1.0);
  }
  EXPECT_EQ(sparse.nonzeros(), rows);
  const Matrix b = random_dense(cols, 9, 1.0, rng);
  Matrix from_sparse, from_dense;
  sparse.matmul_into(b, from_sparse);
  dense.matmul_into(b, from_dense);
  EXPECT_EQ(from_sparse, from_dense);
}

TEST_F(SparseMatrixProperty, EmptyAndAllZeroShapes) {
  // 0% density: no stored entries, gather outputs stay exactly zero.
  SparseRowMatrix empty(5, 8);
  EXPECT_EQ(empty.nonzeros(), 0u);
  Rng rng(9);
  const Matrix b = random_dense(8, 3, 1.0, rng);
  Matrix out;
  empty.matmul_into(b, out);
  for (const double v : out.data()) EXPECT_EQ(v, 0.0);

  // Degenerate shapes round-trip without touching the kernels.
  SparseRowMatrix none;
  EXPECT_TRUE(none.empty());
  SparseRowMatrix no_cols(4, 0);
  EXPECT_TRUE(no_cols.empty());
}

TEST_F(SparseMatrixProperty, ExplicitStoredZerosAreSkippedLikeDense) {
  // A stored 0.0 entry must contribute nothing — the kernels' zero-skip
  // mirrors the dense aik == 0.0 skip, keeping bit-identity.
  SparseRowMatrix sparse(2, 4);
  sparse.append(0, 1, 0.0);  // explicit zero
  sparse.append(0, 3, 2.0);
  sparse.append(1, 0, -1.5);
  Matrix dense(2, 4);
  dense(0, 3) = 2.0;
  dense(1, 0) = -1.5;

  Rng rng(11);
  const Matrix b = random_dense(4, 5, 1.0, rng);
  Matrix from_sparse, from_dense;
  sparse.matmul_into(b, from_sparse);
  dense.matmul_into(b, from_dense);
  EXPECT_EQ(from_sparse, from_dense);

  Matrix acc_sparse = random_dense(4, 5, 1.0, rng);
  Matrix acc_dense = acc_sparse;
  const Matrix g = random_dense(2, 5, 1.0, rng);
  sparse.matmul_transposed_self_add(g, acc_sparse);
  dense.matmul_transposed_self_add(g, acc_dense);
  EXPECT_EQ(acc_sparse, acc_dense);
}

TEST_F(SparseMatrixProperty, ResetReusesStorageAndDropsEntries) {
  SparseRowMatrix s(3, 3);
  s.append(0, 0, 1.0);
  s.append(2, 1, 2.0);
  EXPECT_EQ(s.nonzeros(), 2u);
  s.reset(4, 6);
  EXPECT_EQ(s.rows(), 4u);
  EXPECT_EQ(s.cols(), 6u);
  EXPECT_EQ(s.nonzeros(), 0u);
  s.append(1, 5, 3.0);
  Matrix d = to_dense(s);
  EXPECT_EQ(d(1, 5), 3.0);
  EXPECT_EQ(s.nonzeros(), 1u);
}

#if DRCELL_DCHECKS_ACTIVE
// Malformed appends must die loudly in checked builds: the gather kernels'
// bit-identity contract relies on rows being non-decreasing and columns
// strictly ascending within a row, and silent acceptance would corrupt
// results instead of failing the build's precondition checks.
TEST_F(SparseMatrixProperty, MalformedAppendsTripDchecks) {
  {
    SparseRowMatrix s(3, 4);
    s.append(1, 2, 1.0);
    EXPECT_THROW(s.append(1, 1, 1.0), CheckError);  // unsorted column
  }
  {
    SparseRowMatrix s(3, 4);
    s.append(1, 2, 1.0);
    EXPECT_THROW(s.append(1, 2, 5.0), CheckError);  // duplicate column
  }
  {
    SparseRowMatrix s(3, 4);
    s.append(2, 0, 1.0);
    EXPECT_THROW(s.append(1, 0, 1.0), CheckError);  // decreasing row
  }
  {
    SparseRowMatrix s(3, 4);
    EXPECT_THROW(s.append(3, 0, 1.0), CheckError);  // row out of range
    EXPECT_THROW(s.append(0, 4, 1.0), CheckError);  // col out of range
  }
}

#endif  // DRCELL_DCHECKS_ACTIVE

TEST_F(SparseMatrixProperty, ShapeMismatchedGatherTripsChecks) {
  // Shape/alias preconditions use DRCELL_CHECK and therefore fire in every
  // build, not just checked ones.
  SparseRowMatrix s(2, 5);
  s.append(0, 1, 1.0);
  Matrix wrong_inner(4, 3);
  Matrix out;
  EXPECT_THROW(s.matmul_into(wrong_inner, out), CheckError);
  Matrix g(2, 3);
  Matrix wrong_acc(5, 7);
  EXPECT_THROW(s.matmul_transposed_self_add(g, wrong_acc), CheckError);
}

}  // namespace
}  // namespace drcell
