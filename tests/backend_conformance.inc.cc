// Per-backend conformance suite for the compute-backend registry
// (linalg/backend.h). This file is compiled once per registered backend: a
// thin wrapper TU defines DRCELL_CONFORMANCE_BACKEND to the registry name
// and #includes this file, and CMake registers the result as
// backend_conformance_<name>_test. Adding a backend therefore means adding
// one wrapper TU and one CMake list entry — the contract itself is written
// once.
//
// What is pinned, per backend:
//  * shape/transpose/zero-skip properties of the three dense GEMM forms,
//    against an in-test ascending-k oracle (bit-identical for
//    exact-contract backends, <= tolerance_vs_native() otherwise);
//  * sparse-vs-dense gather identity across densities 0 .. 100% including
//    single-element rows;
//  * LSTM gate determinism plus analytic-vs-central-difference gradient
//    checks through the full cell;
//  * batched-vs-per-sample train-step equivalence at B in {1, 7, 32};
//  * worker-count invariance of the batched trainer;
//  * closeness to the native backend (single-kernel comparisons within
//    tolerance_vs_native(), end-to-end training within the documented
//    1e-9 loss / 1e-8 parameter bound).
#ifndef DRCELL_CONFORMANCE_BACKEND
#error "Wrapper TU must define DRCELL_CONFORMANCE_BACKEND before including"
#endif

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "linalg/backend.h"
#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "nn/gradient_check.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "rl/dqn_trainer.h"
#include "rl/drqn_qnetwork.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace drcell {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     double zero_prob = 0.3) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.bernoulli(zero_prob) ? 0.0 : rng.normal();
  return m;
}

/// The exact-arithmetic oracle: per output element, additions in ascending-k
/// order, aik == 0.0 skipped, accumulating directly into the zeroed output.
/// Exact-contract backends must reproduce this bit for bit.
Matrix oracle_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  return out;
}

/// Drops explicit zeros, like the replay encoder does.
SparseRowMatrix to_sparse(const Matrix& dense) {
  SparseRowMatrix s(dense.rows(), dense.cols());
  for (std::size_t r = 0; r < dense.rows(); ++r)
    for (std::size_t c = 0; c < dense.cols(); ++c)
      if (dense(r, c) != 0.0) s.append(r, c, dense(r, c));
  return s;
}

rl::Experience random_experience(std::size_t cells, std::size_t k, Rng& rng) {
  rl::Experience e;
  e.state.assign(k * cells, 0.0);
  e.next_state.assign(k * cells, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    e.state[i * cells + rng.uniform_index(cells)] = 1.0;
    e.next_state[i * cells + rng.uniform_index(cells)] = 1.0;
  }
  e.action = rng.uniform_index(cells);
  e.reward = rng.uniform(-1.0, 2.0);
  e.next_mask.assign(cells, 0);
  std::size_t allowed = 0;
  for (auto& m : e.next_mask)
    if (rng.bernoulli(0.7)) {
      m = 1;
      ++allowed;
    }
  if (allowed == 0) e.next_mask[0] = 1;
  e.terminal = rng.bernoulli(0.15);
  return e;
}

class BackendConformance : public ::testing::Test {
 protected:
  void SetUp() override {
    be_ = BackendRegistry::find(DRCELL_CONFORMANCE_BACKEND);
    ASSERT_NE(be_, nullptr)
        << "backend '" DRCELL_CONFORMANCE_BACKEND "' is not registered";
    BackendRegistry::set_active(DRCELL_CONFORMANCE_BACKEND);
  }
  void TearDown() override {
    // Leave the binary's backend deterministic between tests regardless of
    // what a cross-backend comparison switched to mid-test.
    BackendRegistry::set_active(DRCELL_CONFORMANCE_BACKEND);
  }

  const ComputeBackend& be() const { return *be_; }
  bool exact() const { return be_->exact_contract(); }
  /// Bound for single-kernel comparisons against exact-contract arithmetic:
  /// bit-identity for exact backends, tolerance_vs_native() otherwise.
  double kernel_tol() const {
    return exact() ? 0.0 : be_->tolerance_vs_native();
  }

  static void expect_matches(const Matrix& got, const Matrix& want,
                             double tol, const char* what) {
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    if (tol == 0.0) {
      EXPECT_EQ(got, want) << what;
    } else {
      EXPECT_LE((got - want).max_abs(), tol) << what;
    }
  }

  const ComputeBackend* be_ = nullptr;
};

TEST_F(BackendConformance, RegistryExposesBackendAndContractTier) {
  EXPECT_STREQ(be().name(), DRCELL_CONFORMANCE_BACKEND);
  EXPECT_STREQ(BackendRegistry::active().name(), DRCELL_CONFORMANCE_BACKEND);
  EXPECT_GE(be().tolerance_vs_native(), 0.0);
  if (std::string(be().name()) == "native") {
    EXPECT_TRUE(be().exact_contract());
    EXPECT_EQ(be().tolerance_vs_native(), 0.0);
  }
}

TEST_F(BackendConformance, MatmulMatchesAscendingKOracle) {
  // Shapes straddle every kernel regime: 1x1, sub-tile, exact tile
  // boundaries (native tiles 32/32/128, 8-wide j strips), and ragged edges.
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 1, 1},   {3, 5, 4},    {8, 8, 8},
                {32, 32, 32}, {33, 47, 9}, {40, 130, 17}, {5, 64, 128}};
  Rng rng(101);
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng, 0.0);
    Matrix out;
    a.matmul_into(b, out);
    expect_matches(out, oracle_matmul(a, b), kernel_tol(), "matmul_into");
    expect_matches(a.matmul(b), oracle_matmul(a, b), kernel_tol(), "matmul");
  }
}

TEST_F(BackendConformance, MatmulZeroRowsProduceExactZeros) {
  // Zero-skip property: an all-zero A row must yield an exactly-zero output
  // row even against huge B entries — skipped terms (exact backends) and
  // 0.0 * finite products (tolerance backends) both give exact zeros.
  Rng rng(102);
  Matrix a = random_matrix(9, 13, rng);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    a(2, j) = 0.0;
    a(8, j) = 0.0;
  }
  Matrix b(13, 7);
  for (double& v : b.data()) v = rng.bernoulli(0.5) ? 1e300 : -1e300;
  Matrix out;
  a.matmul_into(b, out);
  for (std::size_t j = 0; j < out.cols(); ++j) {
    EXPECT_EQ(out(2, j), 0.0) << "col " << j;
    EXPECT_EQ(out(8, j), 0.0) << "col " << j;
  }
}

TEST_F(BackendConformance, MatmulRowsIndependentOfBatchStacking) {
  // Row-locality property: row b of a stacked [B x K] matmul equals the
  // same row computed as its own B=1 call. Exact backends promise
  // bit-identity (this is the batched-determinism cornerstone); tolerance
  // backends may re-partition by shape and get the relaxed bound.
  Rng rng(103);
  const Matrix a = random_matrix(7, 33, rng);
  const Matrix b = random_matrix(33, 12, rng, 0.0);
  Matrix full;
  a.matmul_into(b, full);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    Matrix row(1, a.cols());
    for (std::size_t c = 0; c < a.cols(); ++c) row(0, c) = a(r, c);
    Matrix out;
    row.matmul_into(b, out);
    for (std::size_t j = 0; j < out.cols(); ++j) {
      if (exact()) {
        EXPECT_EQ(full(r, j), out(0, j)) << "row " << r << " col " << j;
      } else {
        EXPECT_NEAR(full(r, j), out(0, j), be().tolerance_vs_native())
            << "row " << r << " col " << j;
      }
    }
  }
}

TEST_F(BackendConformance, TransposedOtherMatchesExplicitTranspose) {
  // a·bᵀ must equal a·(bᵀ) computed through the plain matmul: same
  // products, same ascending-k order for exact backends.
  Rng rng(104);
  for (const auto& s : {std::array<std::size_t, 3>{1, 1, 1},
                        std::array<std::size_t, 3>{6, 17, 5},
                        std::array<std::size_t, 3>{13, 40, 13}}) {
    const Matrix a = random_matrix(s[0], s[1], rng);
    const Matrix b = random_matrix(s[2], s[1], rng);
    Matrix got;
    a.matmul_transposed_other_into(b, got);
    expect_matches(got, a.matmul(b.transposed()), kernel_tol(),
                   "matmul_transposed_other_into");
  }
}

TEST_F(BackendConformance, TransposedSelfAddAccumulatesIntoRunningSum) {
  // out += aᵀ·b semantics: the kernel must add to the caller's running sum,
  // not overwrite it — two calls from C0 give C0 + 2·aᵀb.
  Rng rng(105);
  const Matrix a = random_matrix(11, 6, rng);
  const Matrix b = random_matrix(11, 9, rng, 0.0);
  const Matrix c0 = random_matrix(6, 9, rng, 0.0);
  const Matrix atb = a.transposed().matmul(b);

  Matrix out = c0;
  a.matmul_transposed_self_add(b, out);
  if (exact()) {
    // Exact contract additionally fixes the addition order: each product
    // lands directly on the running sum, ascending k — so the oracle must
    // replay exactly that, not add a pre-summed aᵀb.
    Matrix want = c0;
    const auto accumulate = [&](Matrix& w) {
      for (std::size_t k = 0; k < a.rows(); ++k)
        for (std::size_t i = 0; i < a.cols(); ++i) {
          const double aki = a(k, i);
          if (aki == 0.0) continue;
          for (std::size_t j = 0; j < b.cols(); ++j)
            w(i, j) += aki * b(k, j);
        }
    };
    accumulate(want);
    EXPECT_EQ(out, want) << "single accumulate";
    a.matmul_transposed_self_add(b, out);
    accumulate(want);
    EXPECT_EQ(out, want) << "double accumulate";
  } else {
    const double tol = be().tolerance_vs_native();
    expect_matches(out, c0 + atb, tol, "single accumulate");
    a.matmul_transposed_self_add(b, out);
    expect_matches(out, c0 + atb + atb, 2.0 * tol, "double accumulate");
  }
}

TEST_F(BackendConformance, SparseGatherMatchesDense) {
  // Sparse-vs-dense identity for the gather GEMM: for exact backends the
  // gather is bit-identical to the dense kernel on the densified operand;
  // tolerance backends run the exact gather for the sparse side, so the
  // comparison is against their (dgemm-shaped) dense result within bound.
  Rng rng(106);
  for (double density : {0.0, 0.01, 0.3, 1.0}) {
    Matrix dense(24, 40);
    for (double& v : dense.data())
      v = rng.bernoulli(density) ? rng.normal() : 0.0;
    // A band of single-element rows, the one-hot selection-state shape.
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < dense.cols(); ++c) dense(r, c) = 0.0;
      dense(r, rng.uniform_index(dense.cols())) = 1.0;
    }
    const SparseRowMatrix sparse = to_sparse(dense);
    const Matrix b = random_matrix(40, 11, rng, 0.0);

    Matrix from_sparse, from_dense;
    sparse.matmul_into(b, from_sparse);
    dense.matmul_into(b, from_dense);
    expect_matches(from_sparse, from_dense, kernel_tol(), "gather matmul");

    Matrix acc_sparse = random_matrix(40, 11, rng, 0.0);
    Matrix acc_dense = acc_sparse;
    const Matrix grads = random_matrix(24, 11, rng, 0.0);
    sparse.matmul_transposed_self_add(grads, acc_sparse);
    dense.matmul_transposed_self_add(grads, acc_dense);
    expect_matches(acc_sparse, acc_dense, kernel_tol(),
                   "gather transposed_self_add");
  }
}

TEST_F(BackendConformance, LstmGateForwardDeterministicAndFinite) {
  // A backend's gate pass must be a pure function of its operands — two
  // identical calls give bit-identical tensors (the worker-invariance
  // contract leans on this).
  Rng rng(107);
  const std::size_t batch = 5, hidden = 8;
  const Matrix z = random_matrix(batch, 4 * hidden, rng, 0.0);
  const Matrix c_prev = random_matrix(batch, hidden, rng, 0.0);
  Matrix g1(batch, 4 * hidden), c1(batch, hidden), t1(batch, hidden),
      h1(batch, hidden);
  Matrix g2 = g1, c2 = c1, t2 = t1, h2 = h1;
  be().lstm_gate_forward(z, &c_prev, g1, c1, t1, h1);
  be().lstm_gate_forward(z, &c_prev, g2, c2, t2, h2);
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(h1, h2);
  for (const double v : h1.data()) EXPECT_TRUE(std::isfinite(v));
  // First step (no carried cell state) must also be deterministic.
  be().lstm_gate_forward(z, nullptr, g1, c1, t1, h1);
  be().lstm_gate_forward(z, nullptr, g2, c2, t2, h2);
  EXPECT_EQ(h1, h2);
}

TEST_F(BackendConformance, LstmGradientsMatchCentralDifferences) {
  // Full-cell gradient check through the backend's gate forward/backward:
  // analytic parameter gradients vs central differences at the per-sample
  // and minibatch widths.
  for (std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
    Rng rng(41);
    nn::Lstm lstm(3, 5, rng);
    Rng data_rng(42 + batch);
    std::vector<Matrix> seq;
    for (int t = 0; t < 3; ++t)
      seq.push_back(random_matrix(batch, 3, data_rng, 0.0));
    Matrix target(batch, 5);
    for (double& v : target.data()) v = data_rng.normal();

    auto loss_fn = [&] {
      return testing::mse_loss(lstm.forward(seq), target).value;
    };
    for (auto* p : lstm.parameters()) p->zero_grad();
    const auto l = testing::mse_loss(lstm.forward(seq), target);
    lstm.backward(l.grad);
    for (auto* p : lstm.parameters()) {
      const auto r = nn::check_gradient(*p, loss_fn, 1e-6);
      EXPECT_TRUE(r.passed(1e-4))
          << "batch=" << batch << " max_rel=" << r.max_rel_diff;
    }
  }
}

TEST_F(BackendConformance, BatchedTrainStepMatchesPerSample) {
  // Batched-vs-per-sample train-step equivalence at B in {1, 7, 32}: two
  // identically seeded DRQN trainers, one batched and one through the
  // retained per-sample reference path, over the same minibatches, both
  // on this backend's own kernels (gates included) under default options.
  // Exact-contract backends must be bit-identical; for tolerance backends
  // the per-sample path runs differently shaped GEMMs, so the documented
  // end-to-end bound applies instead.
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    const std::size_t cells = 6, k = 2;
    rl::DqnOptions opt;
    opt.batch_size = batch;
    opt.min_replay = batch;
    opt.replay_capacity = 64;
    opt.target_sync_interval = 3;

    Rng seed_rng(11);
    rl::DqnTrainer batched(
        std::make_unique<rl::DrqnQNetwork>(cells, k, 12, seed_rng), opt, 5);
    Rng seed_rng2(11);
    rl::DqnTrainer reference(
        std::make_unique<rl::DrqnQNetwork>(cells, k, 12, seed_rng2), opt,
        5);

    Rng fill(7);
    for (int i = 0; i < 40; ++i) {
      rl::Experience e = random_experience(cells, k, fill);
      rl::Experience copy = e;
      batched.observe(std::move(e));
      reference.observe(std::move(copy));
    }

    Rng draw(9 + batch);
    for (int step = 0; step < 8; ++step) {
      std::vector<std::size_t> indices;
      for (std::size_t i = 0; i < batch; ++i)
        indices.push_back(draw.uniform_index(40));
      const double loss_batched = batched.train_step_on_indices(indices);
      const double loss_reference =
          reference.train_step_reference_on_indices(indices);
      if (exact()) {
        ASSERT_EQ(loss_batched, loss_reference)
            << "B=" << batch << " step " << step;
      } else {
        ASSERT_NEAR(loss_batched, loss_reference, 1e-9)
            << "B=" << batch << " step " << step;
      }
    }
    const auto pa = batched.online().parameters();
    const auto pb = reference.online().parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      if (exact()) {
        EXPECT_EQ(pa[i]->value(), pb[i]->value()) << "B=" << batch << " param "
                                              << i;
      } else {
        EXPECT_LT((pa[i]->value() - pb[i]->value()).max_abs(), 1e-8)
            << "B=" << batch << " param " << i;
      }
    }
  }
}

TEST_F(BackendConformance, TrainStepWorkerCountInvariance) {
  // The batched trainer's results must not depend on how many pool workers
  // serve its per-sample target forwards. Exact backends get bit-identity
  // (row locality makes any work split equivalent); tolerance backends get
  // the end-to-end bound.
  const std::size_t cells = 6, k = 2;
  rl::DqnOptions opt;
  opt.batch_size = 8;
  opt.min_replay = 8;
  opt.replay_capacity = 64;
  opt.target_sync_interval = 3;

  Rng seed_rng(21);
  rl::DqnTrainer serial(
      std::make_unique<rl::DrqnQNetwork>(cells, k, 12, seed_rng), opt, 5);
  Rng seed_rng2(21);
  rl::DqnTrainer pooled(
      std::make_unique<rl::DrqnQNetwork>(cells, k, 12, seed_rng2), opt, 5);
  util::ThreadPool pool(3);
  pooled.set_thread_pool(&pool);

  Rng fill(7);
  for (int i = 0; i < 40; ++i) {
    rl::Experience e = random_experience(cells, k, fill);
    rl::Experience copy = e;
    serial.observe(std::move(e));
    pooled.observe(std::move(copy));
  }
  Rng draw(9);
  for (int step = 0; step < 10; ++step) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < opt.batch_size; ++i)
      indices.push_back(draw.uniform_index(40));
    const double loss_serial = serial.train_step_on_indices(indices);
    const double loss_pooled = pooled.train_step_on_indices(indices);
    if (exact()) {
      ASSERT_EQ(loss_serial, loss_pooled) << "step " << step;
    } else {
      ASSERT_NEAR(loss_serial, loss_pooled, 1e-9) << "step " << step;
    }
  }
  const auto pa = serial.online().parameters();
  const auto pb = pooled.online().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (exact()) {
      EXPECT_EQ(pa[i]->value(), pb[i]->value()) << "param " << i;
    } else {
      EXPECT_LT((pa[i]->value() - pb[i]->value()).max_abs(), 1e-8)
          << "param " << i;
    }
  }
}

TEST_F(BackendConformance, KernelsWithinToleranceOfNative) {
  // Every kernel, same operands, this backend vs native, compared within
  // tolerance_vs_native(). For native itself the bound is 0.0 and the test
  // degenerates to a self-identity check.
  const ComputeBackend* native = BackendRegistry::find("native");
  ASSERT_NE(native, nullptr);
  const double tol = be().tolerance_vs_native();
  Rng rng(108);

  const Matrix a = random_matrix(33, 47, rng);
  const Matrix b = random_matrix(47, 18, rng, 0.0);
  Matrix out_be(33, 18), out_nat(33, 18);
  be().matmul_into(a, b, out_be);
  native->matmul_into(a, b, out_nat);
  expect_matches(out_be, out_nat, tol, "matmul vs native");

  const Matrix bt = random_matrix(18, 47, rng, 0.0);
  Matrix to_be(33, 18), to_nat(33, 18);
  be().matmul_transposed_other_into(a, bt, to_be);
  native->matmul_transposed_other_into(a, bt, to_nat);
  expect_matches(to_be, to_nat, tol, "transposed_other vs native");

  const Matrix g = random_matrix(33, 18, rng, 0.0);
  Matrix acc_be = random_matrix(47, 18, rng, 0.0);
  Matrix acc_nat = acc_be;
  be().matmul_transposed_self_add(a, g, acc_be);
  native->matmul_transposed_self_add(a, g, acc_nat);
  expect_matches(acc_be, acc_nat, tol, "transposed_self_add vs native");

  const SparseRowMatrix sa = to_sparse(random_matrix(33, 47, rng, 0.9));
  Matrix so_be(33, 18), so_nat(33, 18);
  be().sparse_matmul_into(sa, b, so_be);
  native->sparse_matmul_into(sa, b, so_nat);
  expect_matches(so_be, so_nat, tol, "sparse gather vs native");
  Matrix sacc_be = random_matrix(47, 18, rng, 0.0);
  Matrix sacc_nat = sacc_be;
  be().sparse_matmul_transposed_self_add(sa, g, sacc_be);
  native->sparse_matmul_transposed_self_add(sa, g, sacc_nat);
  expect_matches(sacc_be, sacc_nat, tol, "sparse self_add vs native");

  // Gate pass forward + backward on the training activation range.
  const std::size_t batch = 6, hidden = 7;
  Matrix z(batch, 4 * hidden);
  for (double& v : z.data()) v = rng.uniform(-4.0, 4.0);
  const Matrix c_prev = random_matrix(batch, hidden, rng, 0.0);
  Matrix gb(batch, 4 * hidden), cb(batch, hidden), tb(batch, hidden),
      hb(batch, hidden);
  Matrix gn = gb, cn = cb, tn = tb, hn = hb;
  be().lstm_gate_forward(z, &c_prev, gb, cb, tb, hb);
  native->lstm_gate_forward(z, &c_prev, gn, cn, tn, hn);
  expect_matches(hb, hn, tol, "gate forward h vs native");
  expect_matches(cb, cn, tol, "gate forward c vs native");

  const Matrix dh = random_matrix(batch, hidden, rng, 0.0);
  const Matrix dc_next = random_matrix(batch, hidden, rng, 0.0);
  Matrix dz_be(batch, 4 * hidden), dcp_be(batch, hidden);
  Matrix dz_nat = dz_be, dcp_nat = dcp_be;
  be().lstm_gate_backward(gb, tb, &c_prev, dh, dc_next, dz_be, dcp_be);
  native->lstm_gate_backward(gn, tn, &c_prev, dh, dc_next, dz_nat, dcp_nat);
  // Backward consumes each side's own forward tensors, so the divergence
  // compounds one extra step; 4x the single-kernel bound covers it with
  // room while staying zero for exact-identical gate implementations.
  const double btol = tol == 0.0 ? 0.0 : 4.0 * tol;
  expect_matches(dz_be, dz_nat, btol, "gate backward dz vs native");
  expect_matches(dcp_be, dcp_nat, btol, "gate backward dc_prev vs native");
}

TEST_F(BackendConformance, TrainingWithinDocumentedBoundOfNative) {
  // End-to-end: a dozen DRQN Adam steps under this backend vs the same run
  // under native must agree within the documented end-to-end numeric-
  // divergence bound (1e-9 on losses, 1e-8 on parameters — the same bound
  // the fastmath-vs-std:: gate contract established).
  const std::size_t cells = 6, k = 2;
  rl::DqnOptions opt;
  opt.batch_size = 8;
  opt.min_replay = 8;
  opt.replay_capacity = 64;
  opt.target_sync_interval = 3;

  const auto run = [&](const char* backend_name) {
    BackendRegistry::set_active(backend_name);
    Rng seed_rng(11);
    rl::DqnTrainer trainer(
        std::make_unique<rl::DrqnQNetwork>(cells, k, 12, seed_rng), opt, 5);
    Rng fill(7);
    for (int i = 0; i < 40; ++i)
      trainer.observe(random_experience(cells, k, fill));
    Rng draw(9);
    std::vector<double> losses;
    for (int step = 0; step < 12; ++step) {
      std::vector<std::size_t> indices;
      for (std::size_t i = 0; i < opt.batch_size; ++i)
        indices.push_back(draw.uniform_index(40));
      losses.push_back(trainer.train_step_on_indices(indices));
    }
    std::vector<Matrix> params;
    for (const auto* p : trainer.online().parameters())
      params.push_back(p->value());
    return std::make_pair(losses, params);
  };

  const auto [losses_be, params_be] = run(DRCELL_CONFORMANCE_BACKEND);
  const auto [losses_nat, params_nat] = run("native");
  BackendRegistry::set_active(DRCELL_CONFORMANCE_BACKEND);

  ASSERT_EQ(losses_be.size(), losses_nat.size());
  for (std::size_t i = 0; i < losses_be.size(); ++i)
    EXPECT_NEAR(losses_be[i], losses_nat[i], 1e-9) << "step " << i;
  ASSERT_EQ(params_be.size(), params_nat.size());
  for (std::size_t i = 0; i < params_be.size(); ++i)
    EXPECT_LT((params_be[i] - params_nat[i]).max_abs(), 1e-8)
        << "param " << i;
}

}  // namespace
}  // namespace drcell
