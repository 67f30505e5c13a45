#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.h"
#include "rl/dqn_trainer.h"
#include "rl/drqn_qnetwork.h"
#include "rl/mlp_qnetwork.h"

namespace drcell::rl {
namespace {

std::vector<Matrix> one_state_sequence(std::size_t steps, std::size_t cells,
                                       const std::vector<double>& flat) {
  std::vector<Matrix> seq(steps, Matrix(1, cells));
  for (std::size_t t = 0; t < steps; ++t)
    for (std::size_t c = 0; c < cells; ++c) seq[t](0, c) = flat[t * cells + c];
  return seq;
}

TEST(MlpQNetwork, OutputShape) {
  Rng rng(1);
  MlpQNetwork net(5, 2, {16}, rng);
  std::vector<Matrix> seq(2, Matrix(3, 5));
  const Matrix q = net.forward(seq);
  EXPECT_EQ(q.rows(), 3u);
  EXPECT_EQ(q.cols(), 5u);
  EXPECT_EQ(net.num_actions(), 5u);
  EXPECT_EQ(net.history_steps(), 2u);
}

TEST(MlpQNetwork, WrongSequenceLengthThrows) {
  Rng rng(1);
  MlpQNetwork net(5, 2, {16}, rng);
  std::vector<Matrix> seq(3, Matrix(1, 5));
  EXPECT_THROW(net.forward(seq), CheckError);
}

TEST(MlpQNetwork, CloneHasSameShapeFreshWeights) {
  Rng rng(2);
  MlpQNetwork net(4, 2, {8}, rng);
  auto clone = net.clone_architecture(rng);
  EXPECT_EQ(clone->num_actions(), 4u);
  EXPECT_EQ(clone->parameters().size(), net.parameters().size());
  // Different init.
  EXPECT_NE(net.parameters()[0]->value(), clone->parameters()[0]->value());
}

TEST(DrqnQNetwork, OutputShapeAndName) {
  Rng rng(3);
  DrqnQNetwork net(6, 3, 12, rng);
  std::vector<Matrix> seq(3, Matrix(2, 6));
  const Matrix q = net.forward(seq);
  EXPECT_EQ(q.rows(), 2u);
  EXPECT_EQ(q.cols(), 6u);
  EXPECT_EQ(net.name(), "drqn-lstm");
  // The LSTM feeds one output layer: lstm(3) + dense(2). The dense weight
  // is [hidden x cells].
  EXPECT_EQ(net.parameters().size(), 5u);
  EXPECT_EQ(net.parameters()[3]->value().rows(), 12u);
}

TEST(DrqnQNetwork, HistoryChangesOutput) {
  // A recurrent Q-network must distinguish state windows that differ only
  // in the *older* slice.
  Rng rng(5);
  DrqnQNetwork net(3, 2, 8, rng);
  std::vector<double> flat_a{1, 0, 0, 0, 0, 1};
  std::vector<double> flat_b{0, 1, 0, 0, 0, 1};
  const Matrix qa = net.forward(one_state_sequence(2, 3, flat_a));
  const Matrix qb = net.forward(one_state_sequence(2, 3, flat_b));
  EXPECT_GT((qa - qb).max_abs(), 1e-9);
}

TEST(DrqnQNetwork, BackwardProducesFiniteGradients) {
  Rng rng(6);
  DrqnQNetwork net(4, 2, 8, rng);
  std::vector<Matrix> seq(2, Matrix(3, 4));
  for (auto& m : seq)
    for (double& v : m.data()) v = rng.bernoulli(0.5) ? 1.0 : 0.0;
  const Matrix q = net.forward(seq);
  Matrix grad(q.rows(), q.cols(), 0.1);
  for (auto* p : net.parameters()) p->zero_grad();
  net.backward(grad);
  for (auto* p : net.parameters()) {
    EXPECT_FALSE(p->grad.has_non_finite());
    EXPECT_GT(p->grad.max_abs(), 0.0);
  }
}

DqnOptions fast_options() {
  DqnOptions opt;
  opt.batch_size = 8;
  opt.min_replay = 8;
  opt.replay_capacity = 256;
  opt.target_sync_interval = 10;
  opt.learning_rate = 5e-3;
  opt.epsilon = EpsilonSchedule(1.0, 0.05, 100);
  return opt;
}

TEST(DqnTrainer, EpsilonDecaysWithEnvSteps) {
  Rng rng(7);
  auto net = std::make_unique<MlpQNetwork>(3, 1, std::vector<std::size_t>{8},
                                           rng);
  DqnTrainer trainer(std::move(net), fast_options(), 1);
  EXPECT_DOUBLE_EQ(trainer.current_epsilon(), 1.0);
  const std::vector<double> s{0, 0, 0};
  for (int i = 0; i < 50; ++i) trainer.select_action(s, {1, 1, 1});
  EXPECT_LT(trainer.current_epsilon(), 1.0);
  EXPECT_EQ(trainer.env_steps(), 50u);
}

TEST(DqnTrainer, GreedyRespectsMask) {
  Rng rng(8);
  auto net = std::make_unique<MlpQNetwork>(4, 1, std::vector<std::size_t>{8},
                                           rng);
  DqnTrainer trainer(std::move(net), fast_options(), 2);
  const std::vector<std::uint32_t> no_ones;  // the all-zero state
  for (int i = 0; i < 20; ++i) {
    const auto a = trainer.greedy_action(no_ones, {0, 1, 0, 1});
    EXPECT_TRUE(a == 1 || a == 3);
  }
}

TEST(DqnTrainer, SelectActionAlwaysUnmasked) {
  Rng rng(9);
  auto net = std::make_unique<MlpQNetwork>(5, 1, std::vector<std::size_t>{8},
                                           rng);
  DqnTrainer trainer(std::move(net), fast_options(), 3);
  const std::vector<double> s{0, 0, 0, 0, 0};
  const std::vector<std::uint8_t> mask{0, 1, 1, 0, 0};
  for (int i = 0; i < 100; ++i) {
    const auto a = trainer.select_action(s, mask);
    EXPECT_TRUE(a == 1 || a == 2);
  }
}

TEST(DqnTrainer, TrainStepIsNoOpBelowWarmup) {
  Rng rng(10);
  auto net = std::make_unique<MlpQNetwork>(3, 1, std::vector<std::size_t>{8},
                                           rng);
  DqnTrainer trainer(std::move(net), fast_options(), 4);
  EXPECT_EQ(trainer.train_step(), 0.0);
  EXPECT_EQ(trainer.train_steps(), 0u);
}

TEST(DqnTrainer, ObserveValidatesShapes) {
  Rng rng(11);
  auto net = std::make_unique<MlpQNetwork>(3, 1, std::vector<std::size_t>{8},
                                           rng);
  DqnTrainer trainer(std::move(net), fast_options(), 5);
  Experience bad;
  bad.state = {0, 0};  // wrong size
  bad.action = 0;
  bad.next_state = {0, 0, 0};
  bad.next_mask = {1, 1, 1};
  EXPECT_THROW(trainer.observe(std::move(bad)), CheckError);
}

TEST(DqnTrainer, RejectsReplayRingSmallerThanWarmup) {
  // train_step waits for min_replay transitions; a ring that can never hold
  // that many would never train.
  Rng rng(12);
  DqnOptions opt = fast_options();
  opt.replay_capacity = 4;
  opt.min_replay = 8;
  EXPECT_THROW(
      DqnTrainer(std::make_unique<MlpQNetwork>(
                     3, 1, std::vector<std::size_t>{8}, rng),
                 opt, 6),
      CheckError);
  opt.replay_capacity = 8;  // equal is enough
  EXPECT_NO_THROW(DqnTrainer(std::make_unique<MlpQNetwork>(
                                 3, 1, std::vector<std::size_t>{8}, rng),
                             opt, 6));
}

/// A well-formed non-terminal 3-cell transition with a full-width mask.
Experience three_cell_transition() {
  Experience e;
  e.state = {1.0, 0.0, 0.0};
  e.action = 1;
  e.reward = 0.5;
  e.next_state = {0.0, 1.0, 0.0};
  e.next_mask = {1, 0, 1};
  return e;
}

TEST(DqnTrainer, CandidateTrainingRejectsTransitionWithoutCandidates) {
  // Declared candidate training bootstraps over stored candidates; a
  // non-terminal transition without them is rejected at observe(), before
  // it can reach the replay pool.
  Rng rng(13);
  DqnOptions opt = fast_options();
  opt.candidate_training = true;
  DqnTrainer trainer(
      std::make_unique<MlpQNetwork>(3, 1, std::vector<std::size_t>{8}, rng),
      opt, 14);
  EXPECT_THROW(trainer.observe(three_cell_transition()), CheckError);
  EXPECT_EQ(trainer.replay().size(), 0u);

  Experience with_candidates = three_cell_transition();
  with_candidates.next_candidates = {0, 2};
  EXPECT_NO_THROW(trainer.observe(std::move(with_candidates)));
  Experience terminal = three_cell_transition();
  terminal.terminal = true;
  EXPECT_NO_THROW(trainer.observe(std::move(terminal)));
  EXPECT_EQ(trainer.replay().size(), 2u);
}

TEST(DqnTrainer, RejectsNonTerminalTransitionWithNoAllowedAction) {
  // A non-terminal transition must have an action to bootstrap over: an
  // all-zero or missing next_mask without candidates is rejected, while a
  // terminal transition may carry either.
  Rng rng(15);
  DqnTrainer trainer(
      std::make_unique<MlpQNetwork>(3, 1, std::vector<std::size_t>{8}, rng),
      fast_options(), 16);
  Experience dead_end = three_cell_transition();
  dead_end.next_mask = {0, 0, 0};
  EXPECT_THROW(trainer.observe(dead_end), CheckError);
  Experience no_mask = three_cell_transition();
  no_mask.next_mask.clear();
  EXPECT_THROW(trainer.observe(no_mask), CheckError);
  EXPECT_EQ(trainer.replay().size(), 0u);

  dead_end.terminal = true;
  EXPECT_NO_THROW(trainer.observe(std::move(dead_end)));
  no_mask.terminal = true;
  EXPECT_NO_THROW(trainer.observe(std::move(no_mask)));
  EXPECT_EQ(trainer.replay().size(), 2u);
}

/// Contextual bandit: cells 0..2, reward 1 when the action matches the cell
/// flagged in the (single-step) state, else 0. Q-learning with gamma = 0
/// must learn the identity policy.
template <typename NetT>
void train_bandit_and_expect_identity(std::uint64_t seed) {
  Rng rng(seed);
  std::unique_ptr<QNetwork> net;
  if constexpr (std::is_same_v<NetT, MlpQNetwork>) {
    net = std::make_unique<MlpQNetwork>(3, 1, std::vector<std::size_t>{16},
                                        rng);
  } else {
    net = std::make_unique<NetT>(3, 1, 16, rng);
  }
  DqnOptions opt = fast_options();
  opt.gamma = 0.0;
  opt.learning_rate = 1e-2;
  opt.epsilon = EpsilonSchedule(1.0, 0.1, 300);
  DqnTrainer trainer(std::move(net), opt, seed + 1);

  Rng env_rng(seed + 2);
  for (int step = 0; step < 600; ++step) {
    std::vector<double> state(3, 0.0);
    const std::size_t ctx = env_rng.uniform_index(3);
    state[ctx] = 1.0;
    const auto a = trainer.select_action(state, {1, 1, 1});
    Experience e;
    e.state = state;
    e.action = a;
    e.reward = (a == ctx) ? 1.0 : 0.0;
    e.next_state = {0, 0, 0};
    e.next_mask = {1, 1, 1};
    e.terminal = true;
    trainer.observe(std::move(e));
    trainer.train_step();
  }
  for (std::size_t ctx = 0; ctx < 3; ++ctx) {
    const std::vector<std::uint32_t> ones{static_cast<std::uint32_t>(ctx)};
    EXPECT_EQ(trainer.greedy_action(ones, {1, 1, 1}), ctx)
        << "context " << ctx;
  }
}

TEST(DqnTrainer, MlpLearnsContextualBandit) {
  train_bandit_and_expect_identity<MlpQNetwork>(21);
}

TEST(DqnTrainer, DrqnLearnsContextualBandit) {
  train_bandit_and_expect_identity<DrqnQNetwork>(22);
}

TEST(DqnTrainer, BootstrapRespectsNextMask) {
  // Craft a situation where the best next action is masked; the TD target
  // must use the best *allowed* action instead.
  Rng rng(23);
  auto net = std::make_unique<MlpQNetwork>(2, 1, std::vector<std::size_t>{8},
                                           rng);
  DqnOptions opt = fast_options();
  opt.gamma = 1.0;
  opt.batch_size = 4;
  opt.min_replay = 4;
  DqnTrainer trainer(std::move(net), opt, 24);

  // Fill replay with transitions whose next_mask allows only action 1.
  for (int i = 0; i < 8; ++i) {
    Experience e;
    e.state = {1.0, 0.0};
    e.action = 0;
    e.reward = 0.0;
    e.next_state = {0.0, 1.0};
    e.next_mask = {0, 1};
    e.terminal = false;
    trainer.observe(std::move(e));
  }
  // Must not throw and must produce finite loss.
  const double loss = trainer.train_step();
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(DqnTrainer, TerminalTransitionsDoNotBootstrap) {
  // gamma = 1 with huge Q-values at next state: if the terminal flag is
  // honoured, targets equal the rewards and the loss stays moderate.
  Rng rng(25);
  auto net = std::make_unique<MlpQNetwork>(2, 1, std::vector<std::size_t>{8},
                                           rng);
  DqnOptions opt = fast_options();
  opt.gamma = 1.0;
  DqnTrainer trainer(std::move(net), opt, 26);
  for (int i = 0; i < 16; ++i) {
    Experience e;
    e.state = {1.0, 0.0};
    e.action = 0;
    e.reward = 0.5;
    e.next_state = {0.0, 1.0};
    e.next_mask = {1, 1};
    e.terminal = true;
    trainer.observe(std::move(e));
  }
  for (int i = 0; i < 200; ++i) trainer.train_step();
  // Q(state {1, 0}, action 0): the state's one 1.0 entry is index 0.
  const auto q = trainer.candidate_q_values(std::vector<std::uint32_t>{0},
                                            std::vector<std::uint32_t>{0});
  EXPECT_NEAR(q[0], 0.5, 0.05);
}

TEST(DqnTrainer, TargetSyncMakesNetworksAgree) {
  Rng rng(29);
  auto net = std::make_unique<MlpQNetwork>(2, 1, std::vector<std::size_t>{8},
                                           rng);
  DqnTrainer trainer(std::move(net), fast_options(), 30);
  // After construction the target is synchronised; train a few steps, then
  // q-values from the online network change but sync_target realigns them.
  for (int i = 0; i < 16; ++i) {
    Experience e;
    e.state = {1.0, 0.0};
    e.action = 0;
    e.reward = 2.0;
    e.next_state = {0.0, 1.0};
    e.next_mask = {1, 1};
    e.terminal = true;
    trainer.observe(std::move(e));
  }
  for (int i = 0; i < 30; ++i) trainer.train_step();
  EXPECT_NO_THROW(trainer.sync_target());
}

}  // namespace
}  // namespace drcell::rl
