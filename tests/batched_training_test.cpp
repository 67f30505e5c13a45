// The batched-training determinism contract (nn/layer.h, rl/qnetwork.h):
// batch-major forwards/backwards through nn/ and rl/ must be bit-identical
// to the retained per-sample paths — row b of a batched output equals a
// B=1 forward of sample b, batched input gradients equal per-sample input
// gradients, and parameter gradients accumulate in sample-major order so a
// whole batched train step replays the per-sample reference step addition
// for addition, for every batch size and thread-pool worker count.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/gradient_check.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/sequential.h"
#include "rl/dqn_trainer.h"
#include "rl/drqn_qnetwork.h"
#include "rl/mlp_qnetwork.h"
#include "rl/spatial_drqn_qnetwork.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace drcell {
namespace {

/// Timestep-major batch: `steps` matrices of [batch x cells], ~30% one-hot
/// like the selection-vector states plus dense noise rows to exercise the
/// non-sparse kernels too.
std::vector<Matrix> random_batch(std::size_t steps, std::size_t batch,
                                 std::size_t cells, Rng& rng) {
  std::vector<Matrix> seq(steps, Matrix(batch, cells));
  for (auto& m : seq)
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t c = 0; c < cells; ++c)
        m(b, c) = rng.bernoulli(0.3) ? 1.0 : 0.2 * rng.normal();
  return seq;
}

/// Extracts sample b of a timestep-major batch as its own B=1 batch.
std::vector<Matrix> slice_sample(const std::vector<Matrix>& batch_seq,
                                 std::size_t b) {
  std::vector<Matrix> one;
  for (const Matrix& step : batch_seq) {
    Matrix m(1, step.cols());
    for (std::size_t c = 0; c < step.cols(); ++c) m(0, c) = step(b, c);
    one.push_back(std::move(m));
  }
  return one;
}

Matrix slice_row(const Matrix& m, std::size_t r) {
  Matrix out(1, m.cols());
  for (std::size_t c = 0; c < m.cols(); ++c) out(0, c) = m(r, c);
  return out;
}

template <typename NetFn>
void expect_forward_batch_matches_per_sample(NetFn&& make_net,
                                             std::size_t cells,
                                             std::size_t steps) {
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    auto net = make_net();
    Rng data_rng(100 + batch);
    const auto seq = random_batch(steps, batch, cells, data_rng);
    const Matrix q_batched = net->forward_batch(seq);
    for (std::size_t b = 0; b < batch; ++b) {
      const Matrix q_single = net->forward(slice_sample(seq, b));
      EXPECT_EQ(slice_row(q_batched, b), q_single)
          << "batch=" << batch << " sample=" << b;
    }
  }
}

TEST(BatchedForward, MlpRowsMatchPerSampleBitIdentically) {
  expect_forward_batch_matches_per_sample(
      [] {
        Rng rng(1);
        return std::make_unique<rl::MlpQNetwork>(
            9, 3, std::vector<std::size_t>{16, 8}, rng);
      },
      9, 3);
}

TEST(BatchedForward, DrqnRowsMatchPerSampleBitIdentically) {
  expect_forward_batch_matches_per_sample(
      [] {
        Rng rng(2);
        return std::make_unique<rl::DrqnQNetwork>(9, 3, 12, rng);
      },
      9, 3);
}

TEST(BatchedBackward, SequentialGradsMatchPerSampleLoopBitIdentically) {
  // One batched forward/backward vs a per-sample loop through an identical
  // twin network: input gradients row for row, parameter gradients addition
  // for addition.
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    const auto build = [] {
      Rng rng(3);
      nn::Sequential net;
      net.emplace<nn::Dense>(6, 10, rng);
      net.emplace<nn::ReLU>();
      net.emplace<nn::Dense>(10, 4, rng);
      return net;
    };
    nn::Sequential batched = build();
    nn::Sequential per_sample = build();

    Rng data_rng(200 + batch);
    Matrix x(batch, 6);
    Matrix grad(batch, 4);
    for (double& v : x.data()) v = data_rng.normal();
    for (double& v : grad.data()) v = data_rng.normal();

    for (auto* p : batched.parameters()) p->zero_grad();
    batched.forward(x);
    const Matrix dx_batched = batched.backward(grad);

    for (auto* p : per_sample.parameters()) p->zero_grad();
    for (std::size_t b = 0; b < batch; ++b) {
      per_sample.forward(slice_row(x, b));
      const Matrix dx_single = per_sample.backward(slice_row(grad, b));
      EXPECT_EQ(slice_row(dx_batched, b), dx_single)
          << "batch=" << batch << " sample=" << b;
    }
    const auto pa = batched.parameters();
    const auto pb = per_sample.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
      EXPECT_EQ(pa[i]->grad, pb[i]->grad) << "param " << i
                                          << " batch=" << batch;
  }
}

TEST(BatchedBackward, LstmGradsMatchPerSampleLoopBitIdentically) {
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    const auto build = [] {
      Rng rng(4);
      return nn::Lstm(5, 7, rng);
    };
    nn::Lstm batched = build();
    nn::Lstm per_sample = build();

    Rng data_rng(300 + batch);
    const auto seq = random_batch(4, batch, 5, data_rng);
    Matrix grad_h(batch, 7);
    for (double& v : grad_h.data()) v = data_rng.normal();

    for (auto* p : batched.parameters()) p->zero_grad();
    batched.forward(seq);
    batched.backward(grad_h);

    for (auto* p : per_sample.parameters()) p->zero_grad();
    for (std::size_t b = 0; b < batch; ++b) {
      per_sample.forward(slice_sample(seq, b));
      per_sample.backward(slice_row(grad_h, b));
    }
    const auto pa = batched.parameters();
    const auto pb = per_sample.parameters();
    for (std::size_t i = 0; i < pa.size(); ++i)
      EXPECT_EQ(pa[i]->grad, pb[i]->grad) << "param " << i
                                          << " batch=" << batch;
  }
}

TEST(BatchedBackward, BatchedLstmGradientCheckAgainstFiniteDifferences) {
  // The batched (B=7) LSTM backward against central differences — the
  // analytic gradients must be right, not merely consistent with the
  // per-sample path.
  Rng rng(5);
  nn::Lstm lstm(3, 5, rng);
  Rng data_rng(6);
  const auto seq = random_batch(4, 7, 3, data_rng);
  Matrix target(7, 5);
  for (double& v : target.data()) v = data_rng.normal();

  auto loss_fn = [&] {
    return testing::mse_loss(lstm.forward(seq), target).value;
  };
  for (auto* p : lstm.parameters()) p->zero_grad();
  const auto l = testing::mse_loss(lstm.forward(seq), target);
  lstm.backward(l.grad);
  for (auto* p : lstm.parameters()) {
    const auto r = nn::check_gradient(*p, loss_fn, 1e-6);
    EXPECT_TRUE(r.passed(1e-4)) << "max_rel=" << r.max_rel_diff;
  }
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

enum class Net { kMlp, kDrqn, kSpatialDrqn };

/// The three shipped Q-networks over a 6-cell action space (k = 2).
rl::QNetworkPtr make_qnet(Net net, std::uint64_t seed) {
  Rng rng(seed);
  switch (net) {
    case Net::kMlp:
      return std::make_unique<rl::MlpQNetwork>(
          6, 2, std::vector<std::size_t>{16}, rng);
    case Net::kDrqn:
      return std::make_unique<rl::DrqnQNetwork>(6, 2, 12, rng);
    case Net::kSpatialDrqn:
      // 3x2 grid, LSTM hidden 12, Fourier k 1 (d = 9), query hidden 4.
      return std::make_unique<rl::SpatialDrqnQNetwork>(3, 2, 2, 12, 1, 4,
                                                       rng);
  }
  return nullptr;
}

/// Two identically seeded trainers, one driven batched and one through the
/// retained per-sample oracle (dense B=1 sequences through each network's
/// full-width forward_batch/backward) over the same minibatches, must stay
/// bit-identical: same losses, same parameters — for every shipped network
/// and any worker count serving the batched forwards. Default options: both
/// sides run the active backend's gate kernels, so the contract is exact
/// under every backend.
void expect_train_step_matches_reference(Net net, std::size_t workers) {
  const std::size_t cells = 6, k = 2;
  rl::DqnOptions opt;
  opt.batch_size = 8;
  opt.min_replay = 8;
  opt.replay_capacity = 64;
  opt.target_sync_interval = 3;  // exercise the sync cadence too

  rl::DqnTrainer batched(make_qnet(net, 11), opt, 5);
  rl::DqnTrainer reference(make_qnet(net, 11), opt, 5);
  util::ThreadPool pool(workers);
  batched.set_thread_pool(&pool);

  Rng fill(7);
  for (int i = 0; i < 40; ++i) {
    rl::Experience e = random_experience(cells, k, fill);
    rl::Experience copy = e;
    batched.observe(std::move(e));
    reference.observe(std::move(copy));
  }

  Rng draw(9);
  for (int step = 0; step < 12; ++step) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < opt.batch_size; ++i)
      indices.push_back(draw.uniform_index(40));
    const double loss_batched = batched.train_step_on_indices(indices);
    const double loss_reference =
        reference.train_step_reference_on_indices(indices);
    ASSERT_EQ(loss_batched, loss_reference) << "step " << step;
  }
  const auto pa = batched.online().parameters();
  const auto pb = reference.online().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i]->value(), pb[i]->value()) << "param " << i;
}

TEST(BatchedTrainStep, MlpMatchesReferenceBitIdentically) {
  expect_train_step_matches_reference(Net::kMlp, 0);
  expect_train_step_matches_reference(Net::kMlp, 3);
}

TEST(BatchedTrainStep, DrqnMatchesReferenceBitIdentically) {
  expect_train_step_matches_reference(Net::kDrqn, 0);
  expect_train_step_matches_reference(Net::kDrqn, 3);
}

TEST(BatchedTrainStep, SpatialDrqnMatchesReferenceBitIdentically) {
  expect_train_step_matches_reference(Net::kSpatialDrqn, 0);
  expect_train_step_matches_reference(Net::kSpatialDrqn, 3);
}

/// One minibatch mixes every kind of bootstrap row the update handles:
/// covering candidates (the allowed actions, next_mask dropped), genuine
/// candidate subsets of ragged width, mask-only rows and terminal rows.
/// The batched step evaluates the target head at each row's own columns
/// and must still match the per-sample reference, which bootstraps from
/// full-width B=1 forwards, loss for loss and parameter for parameter.
void expect_mixed_bootstrap_rows_match_reference(Net net,
                                                 std::size_t workers) {
  const std::size_t cells = 6, k = 2;
  rl::DqnOptions opt;
  opt.batch_size = 10;
  opt.min_replay = 10;
  opt.replay_capacity = 64;
  opt.target_sync_interval = 3;

  rl::DqnTrainer batched(make_qnet(net, 13), opt, 5);
  rl::DqnTrainer reference(make_qnet(net, 13), opt, 5);
  util::ThreadPool pool(workers);
  batched.set_thread_pool(&pool);

  Rng fill(17);
  for (int i = 0; i < 48; ++i) {
    rl::Experience e = random_experience(cells, k, fill);
    e.terminal = i % 4 == 3;
    if (i % 4 == 0) {
      for (std::uint32_t c = 0; c < cells; ++c)
        if (e.next_mask[c]) e.next_candidates.push_back(c);
      e.next_mask.clear();
    } else if (i % 4 == 1) {
      for (std::uint32_t c = 0; c < cells; ++c)
        if (fill.bernoulli(0.4)) e.next_candidates.push_back(c);
      if (e.next_candidates.empty()) e.next_candidates.push_back(4);
    }
    rl::Experience copy = e;
    batched.observe(std::move(e));
    reference.observe(std::move(copy));
  }

  Rng draw(19);
  for (int step = 0; step < 12; ++step) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < opt.batch_size; ++i)
      indices.push_back(draw.uniform_index(48));
    const double loss_batched = batched.train_step_on_indices(indices);
    const double loss_reference =
        reference.train_step_reference_on_indices(indices);
    ASSERT_EQ(loss_batched, loss_reference) << "step " << step;
  }
  const auto pa = batched.online().parameters();
  const auto pb = reference.online().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i]->value(), pb[i]->value()) << "param " << i;
}

TEST(BatchedTrainStep, MixedBootstrapRowsMatchReferenceBitIdentically) {
  for (const Net net : {Net::kMlp, Net::kDrqn, Net::kSpatialDrqn})
    for (const std::size_t workers : {std::size_t{0}, std::size_t{3}})
      expect_mixed_bootstrap_rows_match_reference(net, workers);
}

/// Ascending flat indices of the 1.0 entries of a 0/1 state vector.
std::vector<std::uint32_t> ones_of(const std::vector<double>& flat) {
  std::vector<std::uint32_t> ones;
  for (std::size_t i = 0; i < flat.size(); ++i)
    if (flat[i] == 1.0) ones.push_back(static_cast<std::uint32_t>(i));
  return ones;
}

/// observe() encodes dense state vectors and one-index lists into the same
/// stored transition, so two identically seeded trainers fed the same
/// transitions in either representation stay bit-identical: same losses,
/// same parameters.
void expect_dense_and_ones_states_train_identically(Net net) {
  const std::size_t cells = 6, k = 2;
  rl::DqnOptions opt;
  opt.batch_size = 8;
  opt.min_replay = 8;
  opt.replay_capacity = 64;
  opt.target_sync_interval = 3;

  rl::DqnTrainer dense(make_qnet(net, 11), opt, 5);
  rl::DqnTrainer ones(make_qnet(net, 11), opt, 5);
  Rng fill(7);
  for (int i = 0; i < 40; ++i) {
    rl::Experience e = random_experience(cells, k, fill);
    rl::Experience s;
    s.sparse_states = true;
    s.state_ones = ones_of(e.state);
    s.next_state_ones = ones_of(e.next_state);
    s.action = e.action;
    s.reward = e.reward;
    s.next_mask = e.next_mask;
    s.terminal = e.terminal;
    dense.observe(std::move(e));
    ones.observe(std::move(s));
  }

  Rng draw(9);
  for (int step = 0; step < 12; ++step) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < opt.batch_size; ++i)
      indices.push_back(draw.uniform_index(40));
    ASSERT_EQ(dense.train_step_on_indices(indices),
              ones.train_step_on_indices(indices))
        << "step " << step;
  }
  const auto pa = dense.online().parameters();
  const auto pb = ones.online().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i]->value(), pb[i]->value()) << "param " << i;
}

TEST(ReplayEncoding, DenseAndOneIndexStatesTrainBitIdentically) {
  expect_dense_and_ones_states_train_identically(Net::kDrqn);
  expect_dense_and_ones_states_train_identically(Net::kMlp);
}

}  // namespace
}  // namespace drcell
