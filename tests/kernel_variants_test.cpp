// Every ISA variant of the dispatched kernels (util/isa.h), called directly
// through the internal variant tables: the five GEMM kernels
// (linalg/kernels.h) and the fastmath array kernels (util/fastmath.h). The
// process only ever runs the selected variant, so without this test an
// AVX2 host never executes the baseline build at all.
//
// Each variant must match every other variant and the existing oracles
// byte for byte: the reference backend's plain loop nests, the seed kernel
// matmul_unblocked, the dense kernel on the densified sparse operand, and
// the scalar fastmath forms. The shapes are random with ragged edges (n off
// the 16-wide strip, depth off the 32-deep k-tile, fewer rows than a row
// tile), `a` holds exact 0.0 and -0.0 entries and `b` holds ±Inf and NaN,
// so a lost or misplaced zero skip turns 0·Inf into a NaN that shows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "linalg/backend.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "util/fastmath.h"
#include "util/isa.h"
#include "util/rng.h"

namespace drcell {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The platform's default NaN, produced at run time (Inf − Inf), so every
// NaN in these tests carries the same bits whichever operand an addition
// propagates.
double default_nan() {
  volatile double inf = kInf;
  return inf - inf;
}

bool same_bytes(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.size() * sizeof(double)) == 0;
}

/// `a` operand: normals with exact 0.0 and -0.0 sprinkled in.
Matrix random_a(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    const double u = rng.uniform();
    v = u < 0.2 ? 0.0 : u < 0.35 ? -0.0 : rng.normal();
  }
  return m;
}

/// `b` operand: normals with rare ±Inf and NaN entries.
Matrix random_b(std::size_t rows, std::size_t cols, Rng& rng) {
  const double nan = default_nan();
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    const double u = rng.uniform();
    v = u < 0.01 ? kInf : u < 0.02 ? -kInf : u < 0.03 ? nan : rng.normal();
  }
  return m;
}

SparseRowMatrix to_sparse(const Matrix& dense, Rng& rng) {
  // Stores every nonzero plus some explicit ±0.0 entries, which the gather
  // must skip like the dense kernel skips them.
  SparseRowMatrix s(dense.rows(), dense.cols());
  for (std::size_t r = 0; r < dense.rows(); ++r)
    for (std::size_t c = 0; c < dense.cols(); ++c)
      if (dense(r, c) != 0.0 || rng.bernoulli(0.2)) s.append(r, c, dense(r, c));
  return s;
}

struct Shape {
  std::size_t m, depth, n;
};

std::vector<Shape> shapes() {
  // Fixed edge cases first, then random shapes straddling the strip (16),
  // k-tile (32), row-tile (32) and j-tile (128) boundaries.
  std::vector<Shape> out = {{1, 1, 1},    {1, 32, 16},  {3, 33, 17},
                            {31, 31, 15}, {32, 64, 128}, {33, 65, 129},
                            {2, 5, 3},    {45, 70, 57}};
  Rng rng(20181017);
  for (int i = 0; i < 24; ++i)
    out.push_back({1 + rng.uniform_index(40), 1 + rng.uniform_index(80),
                   1 + rng.uniform_index(150)});
  return out;
}

std::string label(const Shape& s, const kernels::GemmVariant& v) {
  return std::to_string(s.m) + "x" + std::to_string(s.depth) + "x" +
         std::to_string(s.n) + " " + isa::name(v.isa);
}

TEST(KernelVariants, TableListsBaselineFirstAndTheSelectedIsa) {
  const auto gemm = kernels::gemm_variants();
  const auto math = fastmath::array_variants();
  ASSERT_FALSE(gemm.empty());
  ASSERT_FALSE(math.empty());
  EXPECT_EQ(gemm[0].isa, isa::Isa::kBaseline);
  EXPECT_EQ(math[0].isa, isa::Isa::kBaseline);
  EXPECT_EQ(gemm.back().isa, isa::selected());
  EXPECT_EQ(math.back().isa, isa::selected());
  EXPECT_EQ(gemm.size(), math.size());
  EXPECT_TRUE(isa::supported(isa::Isa::kBaseline));
  EXPECT_STREQ(isa::name(isa::Isa::kBaseline), "baseline");
  EXPECT_STREQ(isa::name(isa::Isa::kAvx2), "avx2");
}

TEST(KernelVariants, MatmulBlockedMatchesOraclesByteForByte) {
  const ComputeBackend& ref = *BackendRegistry::find("reference");
  Rng rng(1);
  for (const Shape& s : shapes()) {
    const Matrix a = random_a(s.m, s.depth, rng);
    const Matrix b = random_b(s.depth, s.n, rng);
    // From zero, against the seed kernel.
    const Matrix seed = a.matmul_unblocked(b);
    // From a running value, against the reference loop nest.
    const Matrix start = random_a(s.m, s.n, rng);
    Matrix want = start;
    ref.matmul_into(a, b, want);
    for (const auto& v : kernels::gemm_variants()) {
      Matrix from_zero(s.m, s.n);
      v.matmul_blocked_into(a, b, from_zero);
      EXPECT_TRUE(same_bytes(from_zero, seed)) << label(s, v);
      Matrix got = start;
      v.matmul_blocked_into(a, b, got);
      EXPECT_TRUE(same_bytes(got, want)) << label(s, v);
    }
  }
}

TEST(KernelVariants, TransposedOtherMatchesOracleByteForByte) {
  const ComputeBackend& ref = *BackendRegistry::find("reference");
  Rng rng(2);
  for (const Shape& s : shapes()) {
    const Matrix a = random_a(s.m, s.depth, rng);
    const Matrix b = random_b(s.n, s.depth, rng);
    Matrix want(s.m, s.n);
    ref.matmul_transposed_other_into(a, b, want);
    for (const auto& v : kernels::gemm_variants()) {
      // `out` arrives with unspecified contents; the kernel assigns all.
      Matrix got = random_b(s.m, s.n, rng);
      v.matmul_transposed_other_into(a, b, got);
      EXPECT_TRUE(same_bytes(got, want)) << label(s, v);
    }
  }
}

TEST(KernelVariants, TransposedSelfAddMatchesOracleByteForByte) {
  const ComputeBackend& ref = *BackendRegistry::find("reference");
  Rng rng(3);
  for (const Shape& s : shapes()) {
    // out (depth x n) += aᵀ (depth x m) · b (m x n).
    const Matrix a = random_a(s.m, s.depth, rng);
    const Matrix b = random_b(s.m, s.n, rng);
    const Matrix start = random_a(s.depth, s.n, rng);
    Matrix want = start;
    ref.matmul_transposed_self_add(a, b, want);
    for (const auto& v : kernels::gemm_variants()) {
      Matrix got = start;
      v.matmul_transposed_self_add(a, b, got);
      EXPECT_TRUE(same_bytes(got, want)) << label(s, v);
    }
  }
}

TEST(KernelVariants, SparseGatherPairMatchesOraclesByteForByte) {
  const ComputeBackend& ref = *BackendRegistry::find("reference");
  Rng rng(4);
  for (const Shape& s : shapes()) {
    const Matrix a_dense = random_a(s.m, s.depth, rng);
    const SparseRowMatrix a = to_sparse(a_dense, rng);
    const Matrix b = random_b(s.depth, s.n, rng);
    const Matrix start = random_a(s.m, s.n, rng);
    Matrix want = start;
    ref.sparse_matmul_into(a, b, want);
    Matrix dense_want = start;
    ref.matmul_into(a_dense, b, dense_want);
    ASSERT_TRUE(same_bytes(want, dense_want));

    const Matrix g = random_b(s.m, s.n, rng);
    const Matrix acc_start = random_a(s.depth, s.n, rng);
    Matrix acc_want = acc_start;
    ref.sparse_matmul_transposed_self_add(a, g, acc_want);
    Matrix acc_dense_want = acc_start;
    ref.matmul_transposed_self_add(a_dense, g, acc_dense_want);
    ASSERT_TRUE(same_bytes(acc_want, acc_dense_want));

    for (const auto& v : kernels::gemm_variants()) {
      Matrix got = start;
      v.sparse_gather_matmul_into(a, b, got);
      EXPECT_TRUE(same_bytes(got, want)) << label(s, v);
      Matrix acc = acc_start;
      v.sparse_gather_transposed_self_add(a, g, acc);
      EXPECT_TRUE(same_bytes(acc, acc_want)) << label(s, v);
    }
  }
}

TEST(KernelVariants, FastmathArraysMatchScalarFormsByteForByte) {
  // Random training-range values plus every special class, at lengths that
  // leave a ragged tail after any vector width.
  Rng rng(5);
  std::vector<double> x = {0.0,  -0.0, kInf, -kInf, default_nan(),
                           1e-310, -1e-310, 709.9, -709.9, 745.0, -745.0,
                           40.0, -40.0};
  while (x.size() < 203) x.push_back(rng.uniform(-45.0, 45.0));

  auto expect_bytes = [](const std::vector<double>& got,
                         const std::vector<double>& want, const char* what,
                         isa::Isa isa, std::size_t n) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)), 0)
        << what << " " << isa::name(isa) << " n=" << n;
  };
  for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                              std::size_t{13}, x.size()}) {
    std::vector<double> exp_want(n), tanh_want(n), sig_want(n);
    for (std::size_t i = 0; i < n; ++i) {
      exp_want[i] = fastmath::exp(x[i]);
      tanh_want[i] = fastmath::tanh(x[i]);
      sig_want[i] = fastmath::sigmoid(x[i]);
    }
    for (const auto& v : fastmath::array_variants()) {
      std::vector<double> out(n);
      v.exp_array(x.data(), out.data(), n);
      expect_bytes(out, exp_want, "exp", v.isa, n);
      v.tanh_array(x.data(), out.data(), n);
      expect_bytes(out, tanh_want, "tanh", v.isa, n);
      v.sigmoid_array(x.data(), out.data(), n);
      expect_bytes(out, sig_want, "sigmoid", v.isa, n);
    }
  }
}

}  // namespace
}  // namespace drcell
