// The metro-tier fast-path contracts (linalg/sparse_matrix.h,
// nn/lstm.h, rl/qnetwork.h, mcs/candidate_set.h):
//
//  * the sparse gather kernels are BIT-IDENTICAL to the dense kernels on
//    the densified operand — the dense kernels accumulate each output
//    element in ascending-k order and skip zero terms, and the gather
//    replays exactly those additions in exactly that order;
//  * the column-restricted Q head scores every listed column
//    bit-identically to the full forward, so the candidate argmax equals
//    the full masked argmax whenever the candidates cover the allowed
//    actions — and a train step on covering candidates matches one on the
//    equivalent next_mask parameter for parameter;
//  * the candidate-set generator degenerates to the exact action space in
//    the covering case and otherwise returns a deterministic, strictly
//    ascending subset of the unsensed cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/sparse_matrix.h"
#include "mcs/candidate_set.h"
#include "mcs/environment.h"
#include "mcs/state_encoder.h"
#include "nn/gradient_check.h"
#include "nn/lstm.h"
#include "rl/dqn_trainer.h"
#include "rl/drqn_qnetwork.h"
#include "rl/replay_buffer.h"
#include "rl/spatial_drqn_qnetwork.h"
#include "test_helpers.h"

namespace drcell {
namespace {

using testing::to_dense;

/// Densified matrix -> SparseRowMatrix (ascending columns per row, explicit
/// zeros dropped) — the canonical conversion every bit-identity test pivots
/// on.
SparseRowMatrix to_sparse(const Matrix& m) {
  SparseRowMatrix s(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      if (m(r, c) != 0.0) s.append(r, c, m(r, c));
  return s;
}

std::vector<SparseRowMatrix> to_sparse_batch(const std::vector<Matrix>& seq) {
  std::vector<SparseRowMatrix> out;
  out.reserve(seq.size());
  for (const Matrix& m : seq) out.push_back(to_sparse(m));
  return out;
}

/// Timestep-major batch with controllable sparsity. `one_hot` rows hold a
/// single 1.0 (the selection-vector shape); otherwise entries are nonzero
/// with probability `density` and carry arbitrary values (the mixed-density
/// shape the gather must still match the dense kernel on).
std::vector<Matrix> random_batch(std::size_t steps, std::size_t batch,
                                 std::size_t cells, bool one_hot,
                                 double density, Rng& rng) {
  std::vector<Matrix> seq(steps, Matrix(batch, cells));
  for (auto& m : seq)
    for (std::size_t b = 0; b < batch; ++b) {
      if (one_hot) {
        m(b, rng.uniform_index(cells)) = 1.0;
      } else {
        for (std::size_t c = 0; c < cells; ++c)
          if (rng.bernoulli(density)) m(b, c) = rng.normal();
      }
    }
  return seq;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.normal();
  return m;
}

TEST(SparseRowMatrix, Basics) {
  SparseRowMatrix s(3, 5);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_EQ(s.cols(), 5u);
  EXPECT_EQ(s.nonzeros(), 0u);

  s.append(0, 1, 1.0);
  s.append(0, 4, 2.0);
  s.append(2, 0, 3.0);  // row 1 stays empty
  EXPECT_EQ(s.nonzeros(), 3u);

  const auto r0 = s.row_indices(0);
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0], 1u);
  EXPECT_EQ(r0[1], 4u);
  EXPECT_EQ(s.row_indices(1).size(), 0u);
  ASSERT_EQ(s.row_indices(2).size(), 1u);
  EXPECT_EQ(s.row_values(2)[0], 3.0);

  const Matrix d = to_dense(s);
  EXPECT_EQ(d.rows(), 3u);
  EXPECT_EQ(d.cols(), 5u);
  EXPECT_EQ(d(0, 1), 1.0);
  EXPECT_EQ(d(0, 4), 2.0);
  EXPECT_EQ(d(2, 0), 3.0);
  EXPECT_EQ(d(1, 2), 0.0);

  s.reset(2, 4);
  EXPECT_EQ(s.nonzeros(), 0u);
  EXPECT_EQ(s.rows(), 2u);
}

TEST(SparseGather, MatmulBitIdenticalToDenseKernel) {
  for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
    for (bool one_hot : {true, false}) {
      Rng rng(100 + batch + (one_hot ? 1 : 0));
      const auto seq = random_batch(1, batch, 40, one_hot, 0.15, rng);
      const Matrix& dense = seq.front();
      const SparseRowMatrix sparse = to_sparse(dense);
      const Matrix w = random_matrix(40, 13, rng);

      Matrix out_dense, out_sparse;
      dense.matmul_into(w, out_dense);
      sparse.matmul_into(w, out_sparse);
      EXPECT_EQ(out_dense, out_sparse)
          << "batch=" << batch << " one_hot=" << one_hot;
    }
  }
}

TEST(SparseGather, TransposedSelfAddBitIdenticalToDenseKernel) {
  // The batched parameter-gradient contraction: out += xᵀ · g must replay
  // the dense kernel's additions exactly (same ascending row order, same
  // zero skips), including on a non-zero initial accumulator.
  for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
    for (bool one_hot : {true, false}) {
      Rng rng(200 + batch + (one_hot ? 1 : 0));
      const auto seq = random_batch(1, batch, 17, one_hot, 0.2, rng);
      const Matrix& dense = seq.front();
      const SparseRowMatrix sparse = to_sparse(dense);
      const Matrix g = random_matrix(batch, 9, rng);

      Matrix acc_dense = random_matrix(17, 9, rng);
      Matrix acc_sparse = acc_dense;
      dense.matmul_transposed_self_add(g, acc_dense);
      sparse.matmul_transposed_self_add(g, acc_sparse);
      EXPECT_EQ(acc_dense, acc_sparse)
          << "batch=" << batch << " one_hot=" << one_hot;
    }
  }
}

TEST(SparseGather, LstmSparseForwardAndBackwardBitIdentical) {
  // Whole-layer contract: forward hidden states and the backward pass's
  // accumulated parameter gradients through the sparse-input path equal the
  // dense path's bit for bit (the sparse concat feeds the same
  // matmul_transposed_self_add additions in the same sample-major order).
  for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
    const auto build = [] {
      Rng rng(7);
      return nn::Lstm(20, 6, rng);
    };
    nn::Lstm dense_lstm = build();
    nn::Lstm sparse_lstm = build();

    Rng data_rng(300 + batch);
    const auto seq = random_batch(3, batch, 20, true, 0.0, data_rng);
    const auto sseq = to_sparse_batch(seq);
    Matrix grad_h(batch, 6);
    for (double& v : grad_h.data()) v = data_rng.normal();

    for (auto* p : dense_lstm.parameters()) p->zero_grad();
    for (auto* p : sparse_lstm.parameters()) p->zero_grad();
    const Matrix h_dense = dense_lstm.forward(seq);
    const Matrix h_sparse = sparse_lstm.forward(sseq);
    EXPECT_EQ(h_dense, h_sparse) << "batch=" << batch;

    dense_lstm.backward(grad_h);
    sparse_lstm.backward(grad_h);
    const auto pa = dense_lstm.parameters();
    const auto pb = sparse_lstm.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
      EXPECT_EQ(pa[i]->grad, pb[i]->grad)
          << "param " << i << " batch=" << batch;
  }
}

TEST(SparseGather, LstmDensityFallbackStillMatchesDense) {
  // Above kSparseGatherMaxDensity the sparse forward densifies and
  // delegates — trivially identical, but the routing itself must not
  // disturb shapes or downstream backward state.
  Rng rng(8);
  nn::Lstm a(10, 5, rng);
  Rng rng_b(8);
  nn::Lstm b(10, 5, rng_b);
  Rng data_rng(9);
  // density 0.6 >> 0.25 threshold
  const auto seq = random_batch(2, 4, 10, false, 0.6, data_rng);
  const SparseRowMatrix first = to_sparse(seq.front());
  ASSERT_GE(static_cast<double>(first.nonzeros()) /
                static_cast<double>(first.rows() * first.cols()),
            nn::Lstm::kSparseGatherMaxDensity);
  const Matrix h_dense = a.forward(seq);
  const Matrix h_sparse = b.forward(to_sparse_batch(seq));
  EXPECT_EQ(h_dense, h_sparse);

  Matrix grad_h(4, 5);
  for (double& v : grad_h.data()) v = data_rng.normal();
  for (auto* p : a.parameters()) p->zero_grad();
  for (auto* p : b.parameters()) p->zero_grad();
  a.backward(grad_h);
  b.backward(grad_h);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i]->grad, pb[i]->grad) << "param " << i;
}

/// Every action, for every batch row: the full-cover column list.
rl::ActionColumns all_columns(std::size_t batch, std::size_t cells) {
  std::vector<std::uint32_t> all(cells);
  for (std::size_t c = 0; c < cells; ++c)
    all[c] = static_cast<std::uint32_t>(c);
  return rl::ActionColumns(batch, all);
}

TEST(SparseGather, DrqnForwardBatchSparseBitIdentical) {
  // The sparse training forward at full cover reproduces the dense
  // forward's whole Q matrix.
  for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
    Rng rng_a(11), rng_b(11);
    rl::DrqnQNetwork dense_net(15, 3, 8, rng_a);
    rl::DrqnQNetwork sparse_net(15, 3, 8, rng_b);
    Rng data_rng(400 + batch);
    const auto seq = random_batch(3, batch, 15, true, 0.0, data_rng);
    EXPECT_EQ(dense_net.forward_batch(seq),
              sparse_net.forward_batch_columns(to_sparse_batch(seq),
                                               all_columns(batch, 15)))
        << "batch=" << batch;
  }
}

TEST(SparseGather, ForwardBatchColumnsMatchesFullForward) {
  // Every scored candidate Q-value equals the full forward's value at that
  // column, bit for bit (ragged per-sample column lists, padded rows).
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}}) {
    Rng rng_a(13), rng_b(13);
    rl::DrqnQNetwork full(12, 2, 6, rng_a);
    rl::DrqnQNetwork restricted(12, 2, 6, rng_b);
    Rng data_rng(500 + batch);
    const auto seq = random_batch(2, batch, 12, true, 0.0, data_rng);
    const auto sseq = to_sparse_batch(seq);

    rl::ActionColumns columns(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::uint32_t c = 0; c < 12; ++c)
        if (data_rng.bernoulli(0.4)) columns[b].push_back(c);
      if (columns[b].empty()) columns[b].push_back(3);
    }

    const Matrix q_full = full.forward_batch(seq);
    const Matrix q_cols = restricted.forward_batch_columns(sseq, columns);
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t j = 0; j < columns[b].size(); ++j)
        EXPECT_EQ(q_cols(b, j), q_full(b, columns[b][j]))
            << "batch=" << batch << " b=" << b << " j=" << j;
  }
}

TEST(SparseGather, BackwardColumnsMatchesScatteredFullBackward) {
  // backward_columns with a [b x width] gradient must accumulate exactly
  // the parameter gradients of a full backward whose [b x cells] gradient
  // is zero outside the candidate columns.
  const std::size_t batch = 5, cells = 10;
  Rng rng_a(17), rng_b(17);
  rl::DrqnQNetwork full(cells, 2, 6, rng_a);
  rl::DrqnQNetwork restricted(cells, 2, 6, rng_b);
  Rng data_rng(21);
  const auto seq = random_batch(2, batch, cells, true, 0.0, data_rng);
  const auto sseq = to_sparse_batch(seq);

  rl::ActionColumns columns(batch);
  std::size_t width = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::uint32_t c = 0; c < cells; ++c)
      if (data_rng.bernoulli(0.3)) columns[b].push_back(c);
    if (columns[b].empty()) columns[b].push_back(0);
    width = std::max(width, columns[b].size());
  }
  Matrix grad_cols(batch, width);
  Matrix grad_full(batch, cells);
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t j = 0; j < columns[b].size(); ++j) {
      const double g = data_rng.normal();
      grad_cols(b, j) = g;
      grad_full(b, columns[b][j]) = g;
    }

  for (auto* p : full.parameters()) p->zero_grad();
  for (auto* p : restricted.parameters()) p->zero_grad();
  full.forward_batch(seq);
  full.backward(grad_full);
  restricted.forward_batch_columns(sseq, columns);
  restricted.backward_columns(grad_cols, columns);

  const auto pa = full.parameters();
  const auto pb = restricted.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i]->grad, pb[i]->grad) << "param " << i;
}

rl::QNetworkPtr make_drqn(std::size_t cells, std::size_t k,
                          std::uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<rl::DrqnQNetwork>(cells, k, 10, rng);
}

TEST(CandidateActions, GreedyArgmaxEqualsFullMaskedArgmaxWhenCovering) {
  const std::size_t cells = 14, k = 2;
  rl::DqnOptions opt;
  rl::DqnTrainer trainer(make_drqn(cells, k, 31), opt, 41);
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    // One-hot-union state as its one-index list.
    std::vector<std::uint32_t> ones;
    for (std::size_t j = 0; j < k; ++j)
      ones.push_back(static_cast<std::uint32_t>(j * cells +
                                                rng.uniform_index(cells)));
    std::vector<std::uint8_t> mask(cells, 0);
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t c = 0; c < cells; ++c)
      if (rng.bernoulli(0.6)) {
        mask[c] = 1;
        candidates.push_back(c);
      }
    if (candidates.empty()) {
      mask[5] = 1;
      candidates.push_back(5);
    }
    const std::vector<double> qs = trainer.candidate_q_values(ones, candidates);
    const std::size_t best = static_cast<std::size_t>(
        std::max_element(qs.begin(), qs.end()) - qs.begin());
    EXPECT_EQ(trainer.greedy_action(ones, mask), candidates[best])
        << "trial " << trial;
  }
}

rl::Experience random_sparse_experience(std::size_t cells, std::size_t k,
                                        Rng& rng) {
  rl::Experience e;
  e.sparse_states = true;
  for (std::size_t j = 0; j < k; ++j) {
    e.state_ones.push_back(
        static_cast<std::uint32_t>(j * cells + rng.uniform_index(cells)));
    e.next_state_ones.push_back(
        static_cast<std::uint32_t>(j * cells + rng.uniform_index(cells)));
  }
  e.action = rng.uniform_index(cells);
  e.reward = rng.uniform(-1.0, 2.0);
  e.terminal = rng.bernoulli(0.15);
  std::vector<std::uint8_t> mask(cells, 0);
  std::size_t allowed = 0;
  for (std::uint32_t c = 0; c < cells; ++c)
    if (rng.bernoulli(0.7)) {
      mask[c] = 1;
      ++allowed;
    }
  if (allowed == 0) mask[0] = 1;
  e.next_mask = mask;
  return e;
}

TEST(CandidateActions, CoveringCandidateTrainStepMatchesFullBitIdentically) {
  // Two identically seeded trainers over the same minibatches: one
  // bootstraps over each transition's next_mask, one over candidate
  // subsets that exactly cover the allowed actions. The covering contract:
  // losses and post-update parameters bit-identical — candidate training
  // changes the trajectory distribution only, never the arithmetic.
  const std::size_t cells = 12, k = 2;
  rl::DqnOptions opt;
  opt.batch_size = 8;
  opt.min_replay = 8;
  opt.replay_capacity = 64;
  opt.target_sync_interval = 3;
  rl::DqnOptions cand_opt = opt;
  cand_opt.candidate_training = true;

  rl::DqnTrainer full(make_drqn(cells, k, 51), opt, 61);
  rl::DqnTrainer candidate(make_drqn(cells, k, 51), cand_opt, 61);

  Rng fill(71);
  for (int i = 0; i < 40; ++i) {
    rl::Experience e = random_sparse_experience(cells, k, fill);
    rl::Experience cov = e;
    // Candidate copy: covering candidates instead of the mask.
    cov.next_candidates.clear();
    for (std::uint32_t c = 0; c < cells; ++c)
      if (e.next_mask[c]) cov.next_candidates.push_back(c);
    cov.next_mask.clear();
    full.observe(std::move(e));
    candidate.observe(std::move(cov));
  }

  Rng draw(81);
  for (int step = 0; step < 10; ++step) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < opt.batch_size; ++i)
      indices.push_back(draw.uniform_index(40));
    const double loss_full = full.train_step_on_indices(indices);
    const double loss_cand = candidate.train_step_on_indices(indices);
    ASSERT_EQ(loss_full, loss_cand) << "step " << step;
  }
  const auto pa = full.online().parameters();
  const auto pb = candidate.online().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i]->value(), pb[i]->value()) << "param " << i;
}

TEST(CandidateActions, SparseStateTrainStepMatchesReference) {
  // The sparse minibatch path on one-index (sparse_states) transitions vs
  // the per-sample reference, which densifies every stored state into B=1
  // sequences: identical losses and parameters.
  const std::size_t cells = 10, k = 2;
  rl::DqnOptions opt;
  opt.batch_size = 6;
  opt.min_replay = 6;
  opt.replay_capacity = 32;

  rl::DqnTrainer sparse(make_drqn(cells, k, 91), opt, 95);
  rl::DqnTrainer reference(make_drqn(cells, k, 91), opt, 95);
  Rng fill(97);
  for (int i = 0; i < 20; ++i) {
    rl::Experience e = random_sparse_experience(cells, k, fill);
    rl::Experience copy = e;
    sparse.observe(std::move(e));
    reference.observe(std::move(copy));
  }
  Rng draw(99);
  for (int step = 0; step < 8; ++step) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < opt.batch_size; ++i)
      indices.push_back(draw.uniform_index(20));
    ASSERT_EQ(sparse.train_step_on_indices(indices),
              reference.train_step_reference_on_indices(indices))
        << "step " << step;
  }
  const auto pa = sparse.online().parameters();
  const auto pb = reference.online().parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i]->value(), pb[i]->value()) << "param " << i;
}

std::vector<cs::CellCoord> grid_coords(std::size_t side) {
  std::vector<cs::CellCoord> coords;
  for (std::size_t y = 0; y < side; ++y)
    for (std::size_t x = 0; x < side; ++x)
      coords.push_back({static_cast<double>(x), static_cast<double>(y)});
  return coords;
}

TEST(CandidateSet, CoveringCaseReturnsWholeUnsensedSorted) {
  mcs::CandidateSetOptions opt;
  opt.subset_size = 8;
  mcs::CandidateSetGenerator gen(grid_coords(10), opt);
  const std::vector<std::size_t> unsensed{42, 7, 99, 3};
  const std::vector<std::size_t> recent{50};
  const auto& c = gen.generate(unsensed, recent);
  EXPECT_EQ(c, (std::vector<std::uint32_t>{3, 7, 42, 99}));
}

TEST(CandidateSet, SubsetIsAscendingDistinctWithinUnsensedAndDeterministic) {
  mcs::CandidateSetOptions opt;
  opt.subset_size = 16;
  opt.random_fraction = 0.5;
  opt.seed = 123;
  mcs::CandidateSetGenerator gen_a(grid_coords(10), opt);
  mcs::CandidateSetGenerator gen_b(grid_coords(10), opt);

  std::vector<std::size_t> unsensed;
  for (std::size_t c = 0; c < 100; c += 2) unsensed.push_back(c);  // 50 cells
  const std::vector<std::size_t> recent{44, 46};

  const auto a = gen_a.generate(unsensed, recent);
  const auto& b = gen_b.generate(unsensed, recent);
  EXPECT_EQ(a, b);  // same seed, same call sequence -> same subset
  EXPECT_EQ(a.size(), opt.subset_size);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(std::adjacent_find(a.begin(), a.end()), a.end());
  for (const std::uint32_t cell : a)
    EXPECT_TRUE(std::find(unsensed.begin(), unsensed.end(), cell) !=
                unsensed.end())
        << cell;
}

TEST(CandidateSet, PureKnnSlicePicksNearestToRecentCentroid) {
  mcs::CandidateSetOptions opt;
  opt.subset_size = 6;
  opt.random_fraction = 0.0;  // KNN slice only
  const auto coords = grid_coords(10);
  mcs::CandidateSetGenerator gen(coords, opt);

  std::vector<std::size_t> unsensed;
  for (std::size_t c = 0; c < 100; ++c) unsensed.push_back(c);
  const std::vector<std::size_t> recent{55};  // centroid = (5, 5)

  const auto& got = gen.generate(unsensed, recent);
  // Expected: the 6 nearest unsensed cells by squared distance to (5, 5),
  // ties broken by ascending cell id, then sorted ascending.
  std::vector<std::pair<double, std::size_t>> scored;
  for (const std::size_t c : unsensed) {
    const double dx = coords[c].x - 5.0, dy = coords[c].y - 5.0;
    scored.push_back({dx * dx + dy * dy, c});
  }
  std::sort(scored.begin(), scored.end());
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < opt.subset_size; ++i)
    expected.push_back(static_cast<std::uint32_t>(scored[i].second));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
}

TEST(CandidateSet, EmptyRecentFallsBackToFullyRandomSubset) {
  mcs::CandidateSetOptions opt;
  opt.subset_size = 10;
  opt.random_fraction = 0.0;  // would be all-KNN, but nothing to anchor on
  mcs::CandidateSetGenerator gen(grid_coords(10), opt);
  std::vector<std::size_t> unsensed;
  for (std::size_t c = 0; c < 100; ++c) unsensed.push_back(c);
  const auto& got = gen.generate(unsensed, {});
  EXPECT_EQ(got.size(), opt.subset_size);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
}

/// A stored transition whose states are the encodings of dense vectors.
rl::EncodedExperience encode_dense(const mcs::StateEncoder& encoder,
                                   const std::vector<double>& state,
                                   const std::vector<double>& next_state) {
  rl::EncodedExperience enc;
  encoder.to_sparse_steps(state, enc.state);
  encoder.to_sparse_steps(next_state, enc.next_state);
  return enc;
}

TEST(FillTimestepMajorSparse, DensifiedMatchesDenseFill) {
  // The sparse minibatch, densified, equals the dense timestep-major batch
  // of the same states (testing::to_sequence_batch), repeats included.
  const std::size_t cells = 6, k = 3;
  mcs::StateEncoder encoder(cells, k);
  rl::ReplayBuffer buffer(8);
  std::vector<std::vector<double>> states, nexts;
  Rng fill(7);
  for (int i = 0; i < 8; ++i) {
    std::vector<double> state(k * cells, 0.0), next(k * cells, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      state[j * cells + fill.uniform_index(cells)] = 1.0;
      next[j * cells + fill.uniform_index(cells)] = 1.0;
    }
    buffer.add(encode_dense(encoder, state, next));
    states.push_back(std::move(state));
    nexts.push_back(std::move(next));
  }

  const std::vector<std::size_t> indices{5, 1, 5, 0, 2};
  std::vector<const std::vector<double>*> batch_states, batch_nexts;
  for (const std::size_t i : indices) {
    batch_states.push_back(&states[i]);
    batch_nexts.push_back(&nexts[i]);
  }
  const auto dstate = testing::to_sequence_batch(encoder, batch_states);
  const auto dnext = testing::to_sequence_batch(encoder, batch_nexts);
  std::vector<SparseRowMatrix> sstate, snext;
  buffer.fill_timestep_major_sparse(indices, sstate, snext);

  ASSERT_EQ(sstate.size(), k);
  ASSERT_EQ(snext.size(), k);
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_EQ(to_dense(sstate[j]), dstate[j]) << "step " << j;
    EXPECT_EQ(to_dense(snext[j]), dnext[j]) << "step " << j;
  }
}

TEST(FillTimestepMajorSparse, RingOverwriteInvalidatesCachedRows) {
  // After the replay ring wraps, the batch assembly must append the
  // overwritten slot's new rows, not the evicted transition's, and
  // untouched slots keep their rows.
  const std::size_t cells = 3, k = 2;
  mcs::StateEncoder encoder(cells, k);
  rl::ReplayBuffer buffer(4);
  // Nonzero fill values so every encoded row actually stores entries.
  const auto make = [&](double v) {
    return encode_dense(encoder, std::vector<double>(k * cells, v),
                        std::vector<double>(k * cells, v + 0.5));
  };
  for (int i = 0; i < 4; ++i) buffer.add(make(1.0 + static_cast<double>(i)));

  const std::vector<std::size_t> indices{0, 1};
  std::vector<SparseRowMatrix> state_seq, next_seq;
  buffer.fill_timestep_major_sparse(indices, state_seq, next_seq);
  EXPECT_EQ(to_dense(state_seq[0])(0, 0), 1.0);

  buffer.add(make(9.0));
  buffer.fill_timestep_major_sparse(indices, state_seq, next_seq);
  EXPECT_EQ(to_dense(state_seq[0])(0, 0), 9.0);
  EXPECT_EQ(to_dense(next_seq[0])(0, 0), 9.5);
  EXPECT_EQ(to_dense(state_seq[0])(1, 0), 2.0);  // slot 1 untouched
}

TEST(CandidateActions, CandidateQValuesMatchFullForwardAndGreedyArgmax) {
  // candidate_q_values must hand back exactly the scores the greedy
  // candidate path argmaxes over — bit-identical to the full forward's
  // entries at the candidate columns, with the argmax agreeing with the
  // greedy_action over the candidates as its mask (same first-max
  // tie-break).
  const std::size_t cells = 14, k = 2;
  rl::DqnOptions opt;
  rl::DqnTrainer trainer(make_drqn(cells, k, 33), opt, 47);
  const mcs::StateEncoder encoder(cells, k);
  Rng rng(53);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> state(k * cells, 0.0);
    std::vector<std::uint32_t> ones;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t hot = j * cells + rng.uniform_index(cells);
      state[hot] = 1.0;
      ones.push_back(static_cast<std::uint32_t>(hot));
    }
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t c = 0; c < cells; ++c)
      if (rng.bernoulli(0.5)) candidates.push_back(c);
    if (candidates.empty()) candidates.push_back(2);

    const std::vector<double> qs = trainer.candidate_q_values(ones, candidates);
    ASSERT_EQ(qs.size(), candidates.size()) << "trial " << trial;
    const Matrix full = trainer.online().forward(
        testing::to_sequence_batch(encoder, {&state}));
    for (std::size_t j = 0; j < candidates.size(); ++j)
      EXPECT_EQ(qs[j], full(0, candidates[j]))
          << "trial " << trial << " j=" << j;
    std::vector<std::uint8_t> mask(cells, 0);
    for (const std::uint32_t c : candidates) mask[c] = 1;
    const std::size_t best = static_cast<std::size_t>(
        std::max_element(qs.begin(), qs.end()) - qs.begin());
    EXPECT_EQ(candidates[best], trainer.greedy_action(ones, mask))
        << "trial " << trial;
  }
}

TEST(CandidateActions, OutOfRangeCandidateIdsAreRejected) {
  // Candidate ids index the Q head's weight columns and the bootstrap's Q
  // rows; the kernels behind them only DCHECK the range, so the trainer's
  // entry points must reject ids >= num_actions() in every build.
  const std::size_t cells = 14, k = 2;
  rl::DqnOptions opt;
  rl::DqnTrainer trainer(make_drqn(cells, k, 35), opt, 49);
  const std::vector<std::uint32_t> ones = {3, cells + 5};
  const std::vector<std::uint32_t> bad = {2, 7, cells};
  EXPECT_THROW(trainer.candidate_q_values(ones, bad), CheckError);
  const std::size_t steps = trainer.env_steps();
  EXPECT_THROW(trainer.select_action_candidates(ones, bad), CheckError);
  EXPECT_EQ(trainer.env_steps(), steps);
  const std::vector<std::uint32_t> good = {2, 7, cells - 1};
  EXPECT_EQ(trainer.candidate_q_values(ones, good).size(), good.size());

  Rng rng(57);
  rl::Experience e = random_sparse_experience(cells, k, rng);
  e.next_candidates = {1, static_cast<std::uint32_t>(cells + 3)};
  EXPECT_THROW(trainer.observe(e), CheckError);
  e.next_candidates = {1, static_cast<std::uint32_t>(cells - 1)};
  EXPECT_NO_THROW(trainer.observe(e));
}

TEST(SpatialDrqn, TrainerRejectsOutOfRangeCandidateIds) {
  // The spatial head indexes its per-cell feature rows by candidate id.
  rl::DqnOptions opt;
  Rng net_rng(71);
  rl::DqnTrainer trainer(
      std::make_unique<rl::SpatialDrqnQNetwork>(6, 6, 2, 8, 2, 0, net_rng),
      opt, 73);
  const std::vector<std::uint32_t> ones = {4, 40};
  EXPECT_THROW(trainer.candidate_q_values(ones, std::vector<std::uint32_t>{
                                                    5, 36}),
               CheckError);
  EXPECT_THROW(trainer.select_action_candidates(
                   ones, std::vector<std::uint32_t>{1000}),
               CheckError);
}

TEST(SpatialDrqn, TrainerRejectsInvalidStateOnes) {
  // A one-index state picks its step row as flat / cells and is appended in
  // list order; the encoder only DCHECKs both, so every trainer entry point
  // must reject an index >= k * cells and a list that is not strictly
  // ascending in every build.
  rl::DqnOptions opt;
  Rng net_rng(75);
  rl::DqnTrainer trainer(
      std::make_unique<rl::SpatialDrqnQNetwork>(3, 2, 2, 8, 1, 0, net_rng),
      opt, 77);
  const std::vector<std::uint32_t> candidates = {0, 2, 5};
  const std::vector<std::vector<std::uint32_t>> bad_states = {
      {1, 7, 40}, {1, 12}, {7, 1}, {3, 3}};
  for (const auto& ones : bad_states) {
    EXPECT_THROW(trainer.candidate_q_values(ones, candidates), CheckError);
    const std::size_t steps = trainer.env_steps();
    EXPECT_THROW(trainer.select_action_candidates(ones, candidates),
                 CheckError);
    EXPECT_EQ(trainer.env_steps(), steps);
  }
  const std::vector<std::uint32_t> good = {1, 7, 11};
  EXPECT_EQ(trainer.candidate_q_values(good, candidates).size(), 3u);

  Rng rng(79);
  for (const auto& ones : bad_states) {
    rl::Experience e = random_sparse_experience(6, 2, rng);
    e.state_ones = ones;
    EXPECT_THROW(trainer.observe(e), CheckError);
    e = random_sparse_experience(6, 2, rng);
    e.next_state_ones = ones;
    EXPECT_THROW(trainer.observe(e), CheckError);
  }
  EXPECT_EQ(trainer.replay().size(), 0u);
  EXPECT_NO_THROW(trainer.observe(random_sparse_experience(6, 2, rng)));
  EXPECT_EQ(trainer.replay().size(), 1u);
}

// --- SpatialDrqnQNetwork: the metro-tier action-embedding head ---------

TEST(SpatialDrqn, FeatureMatrixShapeAndCountColumn) {
  Rng rng(61);
  rl::SpatialDrqnQNetwork net(6, 5, 2, 8, 2, 0, rng);
  EXPECT_EQ(net.num_actions(), 30u);
  EXPECT_EQ(net.history_steps(), 2u);
  // d = (2k+1)^2 Fourier features per cell; feature 0 is the constant 1,
  // so a summed projection's first coordinate carries the selection count
  // (the within-cycle progress signal, see the kInputGain note).
  const Matrix& phi = net.features();
  ASSERT_EQ(phi.rows(), 30u);
  ASSERT_EQ(phi.cols(), 25u);
  for (std::size_t c = 0; c < phi.rows(); ++c)
    EXPECT_EQ(phi(c, 0), 1.0) << "cell " << c;
}

TEST(SpatialDrqn, SparseForwardBitIdenticalToDense) {
  // The x·Φ trunk projection is the sparse gather-GEMM; the sparse
  // training forward at full cover must reproduce the dense forward's Q
  // over all cells bit for bit. Exercised with one-hot
  // selection rows and mixed-density rows, and with both query heads
  // (direct map and ReLU hidden layer).
  for (std::size_t query_hidden : {std::size_t{0}, std::size_t{7}}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{9}}) {
      for (bool one_hot : {true, false}) {
        Rng rng_a(23), rng_b(23);
        rl::SpatialDrqnQNetwork dense_net(6, 5, 2, 8, 2, query_hidden, rng_a);
        rl::SpatialDrqnQNetwork sparse_net(6, 5, 2, 8, 2, query_hidden, rng_b);
        Rng data_rng(600 + batch + (one_hot ? 1 : 0));
        const auto seq = random_batch(2, batch, 30, one_hot, 0.15, data_rng);
        EXPECT_EQ(dense_net.forward_batch(seq),
                  sparse_net.forward_batch_columns(to_sparse_batch(seq),
                                                   all_columns(batch, 30)))
            << "qh=" << query_hidden << " batch=" << batch
            << " one_hot=" << one_hot;
      }
    }
  }
}

TEST(SpatialDrqn, ForwardBatchColumnsMatchesFullForward) {
  // The column-restricted head evaluates q·φ(a) with the same ascending-k
  // zero-skip recurrence the full q·Φᵀ kernel uses, so every scored entry
  // must equal the full forward's bit for bit.
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}}) {
    Rng rng_a(29), rng_b(29);
    rl::SpatialDrqnQNetwork full(5, 5, 2, 8, 2, 3, rng_a);
    rl::SpatialDrqnQNetwork restricted(5, 5, 2, 8, 2, 3, rng_b);
    Rng data_rng(700 + batch);
    const auto seq = random_batch(2, batch, 25, true, 0.0, data_rng);
    const auto sseq = to_sparse_batch(seq);

    rl::ActionColumns columns(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::uint32_t c = 0; c < 25; ++c)
        if (data_rng.bernoulli(0.4)) columns[b].push_back(c);
      if (columns[b].empty()) columns[b].push_back(11);
    }

    const Matrix q_full = full.forward_batch(seq);
    const Matrix q_cols = restricted.forward_batch_columns(sseq, columns);
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t j = 0; j < columns[b].size(); ++j)
        EXPECT_EQ(q_cols(b, j), q_full(b, columns[b][j]))
            << "batch=" << batch << " b=" << b << " j=" << j;
  }
}

TEST(SpatialDrqn, BackwardColumnsMatchesScatteredFullBackward) {
  // backward_columns accumulates exactly the terms of a full backward
  // whose [b x cells] gradient is zero outside the candidate columns.
  const std::size_t batch = 5, cells = 24;
  Rng rng_a(37), rng_b(37);
  rl::SpatialDrqnQNetwork full(6, 4, 2, 8, 1, 0, rng_a);
  rl::SpatialDrqnQNetwork restricted(6, 4, 2, 8, 1, 0, rng_b);
  Rng data_rng(41);
  const auto seq = random_batch(2, batch, cells, true, 0.0, data_rng);
  const auto sseq = to_sparse_batch(seq);

  rl::ActionColumns columns(batch);
  std::size_t width = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::uint32_t c = 0; c < cells; ++c)
      if (data_rng.bernoulli(0.3)) columns[b].push_back(c);
    if (columns[b].empty()) columns[b].push_back(0);
    width = std::max(width, columns[b].size());
  }
  Matrix grad_cols(batch, width);
  Matrix grad_full(batch, cells);
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t j = 0; j < columns[b].size(); ++j) {
      const double g = data_rng.normal();
      grad_cols(b, j) = g;
      grad_full(b, columns[b][j]) = g;
    }

  for (auto* p : full.parameters()) p->zero_grad();
  for (auto* p : restricted.parameters()) p->zero_grad();
  full.forward_batch(seq);
  full.backward(grad_full);
  restricted.forward_batch_columns(sseq, columns);
  restricted.backward_columns(grad_cols, columns);

  const auto pa = full.parameters();
  const auto pb = restricted.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i]->grad, pb[i]->grad) << "param " << i;
}

TEST(SpatialDrqn, ColumnRestrictedGradientCheckAtSizeOneAndFullCover) {
  // Analytic gradients of the column-restricted head vs central
  // differences, at the two extremes of the candidate subset: exactly one
  // candidate per row (the narrowest restriction the trainer can issue)
  // and the full-cover set (every cell scored). Between them every branch
  // of the restricted backward — the q·φ(a) scatter and the shared
  // recurrent trunk — gets finite-difference coverage.
  const std::size_t batch = 3, cells = 20, k = 2;
  for (const bool full_cover : {false, true}) {
    Rng rng(61);
    rl::SpatialDrqnQNetwork net(5, 4, k, 8, 1, 3, rng);
    Rng data_rng(62);
    const auto seq = random_batch(k, batch, cells, true, 0.0, data_rng);
    const auto sseq = to_sparse_batch(seq);

    rl::ActionColumns columns(batch);
    const std::size_t width = full_cover ? cells : 1;
    for (std::size_t b = 0; b < batch; ++b) {
      if (full_cover) {
        for (std::uint32_t c = 0; c < cells; ++c) columns[b].push_back(c);
      } else {
        columns[b].push_back(
            static_cast<std::uint32_t>(data_rng.uniform_index(cells)));
      }
    }
    Matrix target(batch, width);
    for (double& v : target.data()) v = data_rng.normal();

    const auto loss_fn = [&] {
      const Matrix q = net.forward_batch_columns(sseq, columns);
      double s = 0.0;
      for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t j = 0; j < width; ++j) {
          const double d = q(b, j) - target(b, j);
          s += 0.5 * d * d;
        }
      return s;
    };

    for (auto* p : net.parameters()) p->zero_grad();
    const Matrix q = net.forward_batch_columns(sseq, columns);
    Matrix grad(batch, width);
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t j = 0; j < width; ++j)
        grad(b, j) = q(b, j) - target(b, j);
    net.backward_columns(grad, columns);

    for (auto* p : net.parameters()) {
      const auto r = nn::check_gradient(*p, loss_fn, 1e-6);
      EXPECT_TRUE(r.passed(1e-4))
          << (full_cover ? "full-cover" : "size-1")
          << " max_rel=" << r.max_rel_diff << " max_abs=" << r.max_abs_diff;
    }
  }
}

TEST(SpatialDrqn, CloneArchitectureMatchesShapes) {
  Rng rng(43);
  rl::SpatialDrqnQNetwork net(6, 4, 3, 10, 2, 5, rng);
  Rng clone_rng(991);
  const auto clone = net.clone_architecture(clone_rng);
  EXPECT_EQ(clone->num_actions(), net.num_actions());
  EXPECT_EQ(clone->history_steps(), net.history_steps());
  EXPECT_EQ(clone->name(), net.name());
  const auto pa = net.parameters();
  const auto pb = clone->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->value().rows(), pb[i]->value().rows()) << "param " << i;
    EXPECT_EQ(pa[i]->value().cols(), pb[i]->value().cols()) << "param " << i;
  }
}

TEST(SpatialDrqn, TrainerGreedyCandidatesAgreeWithCandidateQValues) {
  // The pairing the metro example's D4-averaged selector depends on: with
  // the spatial network under the trainer, candidate_q_values scores the
  // same restricted forward select_action_candidates argmaxes over (at
  // exploration rate 0).
  rl::DqnOptions opt;
  opt.epsilon = rl::EpsilonSchedule(0.0, 0.0, 1);
  Rng net_rng(71);
  rl::DqnTrainer trainer(
      std::make_unique<rl::SpatialDrqnQNetwork>(6, 6, 2, 8, 2, 0, net_rng),
      opt, 73);
  Rng rng(79);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint32_t> ones;
    for (std::size_t j = 0; j < 2; ++j)
      for (int s = 0; s < 3; ++s)
        ones.push_back(static_cast<std::uint32_t>(j * 36 +
                                                  rng.uniform_index(36)));
    std::sort(ones.begin(), ones.end());
    ones.erase(std::unique(ones.begin(), ones.end()), ones.end());
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t c = 0; c < 36; ++c)
      if (rng.bernoulli(0.4)) candidates.push_back(c);
    if (candidates.empty()) candidates.push_back(17);

    const auto qs = trainer.candidate_q_values(ones, candidates);
    ASSERT_EQ(qs.size(), candidates.size());
    const std::size_t best = static_cast<std::size_t>(
        std::max_element(qs.begin(), qs.end()) - qs.begin());
    EXPECT_EQ(candidates[best],
              trainer.select_action_candidates(ones, candidates))
        << "trial " << trial;
  }
}

TEST(Environment, StateOnesMatchesDenseStateNonzeros) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(8, 10));
  auto env = testing::make_toy_environment(task, 1e9);
  Rng rng(3);
  for (int step = 0; step < 12 && !env.episode_done(); ++step) {
    const std::vector<double> state = env.state();
    std::vector<std::uint32_t> expected;
    for (std::size_t i = 0; i < state.size(); ++i) {
      EXPECT_TRUE(state[i] == 0.0 || state[i] == 1.0);
      if (state[i] == 1.0) expected.push_back(static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(env.state_ones(), expected) << "step " << step;

    const auto& unsensed = env.unsensed_cells();
    env.step(unsensed[rng.uniform_index(unsensed.size())]);
  }
}

}  // namespace
}  // namespace drcell
