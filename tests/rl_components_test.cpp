#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "rl/epsilon.h"
#include "rl/replay_buffer.h"
#include "rl/tabular.h"
#include "util/check.h"

namespace drcell::rl {
namespace {

EncodedExperience make_exp(double reward, std::size_t action = 0) {
  EncodedExperience e;
  e.state.reset(1, 2);
  e.action = action;
  e.reward = reward;
  e.next_state.reset(1, 2);
  e.next_state.append(0, 0, 1.0);
  e.next_mask = {1, 1};
  return e;
}

TEST(ReplayBuffer, AddAndSize) {
  ReplayBuffer buf(4);
  EXPECT_TRUE(buf.empty());
  buf.add(make_exp(1.0));
  buf.add(make_exp(2.0));
  EXPECT_EQ(buf.size(), 2u);
  for (int i = 0; i < 3; ++i) buf.add(make_exp(3.0 + i));
  EXPECT_EQ(buf.size(), 4u);  // capped at the capacity
}

TEST(ReplayBuffer, NeverExceedsCapacity) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 10; ++i) buf.add(make_exp(i));
  EXPECT_EQ(buf.size(), 3u);
}

TEST(ReplayBuffer, EvictsOldestFirst) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 5; ++i) buf.add(make_exp(i));
  // Items 0 and 1 must be gone; 2, 3, 4 remain (in ring order).
  std::vector<double> rewards;
  for (std::size_t i = 0; i < buf.size(); ++i)
    rewards.push_back(buf.at(i).reward);
  std::sort(rewards.begin(), rewards.end());
  EXPECT_EQ(rewards, (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(ReplayBuffer, SampleFromEmptyThrows) {
  ReplayBuffer buf(2);
  Rng rng(1);
  EXPECT_THROW(buf.sample_indices(1, rng), CheckError);
}

TEST(ReplayBuffer, SampleReturnsStoredPointers) {
  ReplayBuffer buf(8);
  for (int i = 0; i < 8; ++i) buf.add(make_exp(i));
  Rng rng(2);
  const auto sample = buf.sample_indices(100, rng);
  EXPECT_EQ(sample.size(), 100u);
  for (const std::size_t i : sample) {
    ASSERT_LT(i, buf.size());
    EXPECT_GE(buf.at(i).reward, 0.0);
    EXPECT_LE(buf.at(i).reward, 7.0);
  }
}

TEST(ReplayBuffer, SampleCoversWholeBuffer) {
  ReplayBuffer buf(5);
  for (int i = 0; i < 5; ++i) buf.add(make_exp(i));
  Rng rng(3);
  std::set<double> seen;
  for (const std::size_t i : buf.sample_indices(500, rng))
    seen.insert(buf.at(i).reward);
  EXPECT_EQ(seen.size(), 5u);
}

TEST(ReplayBuffer, ZeroCapacityThrows) {
  EXPECT_THROW(ReplayBuffer(0), CheckError);
}

TEST(EpsilonSchedule, LinearDecay) {
  EpsilonSchedule s(1.0, 0.1, 100);
  EXPECT_DOUBLE_EQ(s.value(0), 1.0);
  EXPECT_NEAR(s.value(50), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(s.value(100), 0.1);
  EXPECT_DOUBLE_EQ(s.value(1000), 0.1);
}

TEST(EpsilonSchedule, ExponentialDecayMonotone) {
  EpsilonSchedule s(1.0, 0.05, 100, EpsilonSchedule::Decay::kExponential);
  double prev = 1.1;
  for (std::size_t t = 0; t <= 300; t += 10) {
    const double v = s.value(t);
    EXPECT_LE(v, prev);
    EXPECT_GE(v, 0.05);
    prev = v;
  }
  EXPECT_NEAR(s.value(0), 1.0, 1e-12);
}

TEST(EpsilonSchedule, RejectsIncreasingSchedule) {
  EXPECT_THROW(EpsilonSchedule(0.1, 0.5, 10), CheckError);
  EXPECT_THROW(EpsilonSchedule(1.5, 0.1, 10), CheckError);
}

// Q[S, A], read as the Eq. 3 value of S with only A allowed.
double q_value(const TabularQLearning& q, const std::vector<double>& state,
               std::size_t action) {
  std::vector<std::uint8_t> only(q.num_actions(), 0);
  only[action] = 1;
  return q.state_value(state, only);
}

TEST(Tabular, NewStateHasZeroValues) {
  TabularQLearning q(3, {});
  const std::vector<double> s{0, 0, 0};
  EXPECT_EQ(q_value(q, s, 0), 0.0);
  EXPECT_EQ(q.table_size(), 0u);
}

TEST(Tabular, UpdateFollowsEquation2) {
  TabularQLearning q(2, {.alpha = 0.5, .gamma = 1.0});
  const std::vector<double> s{0, 0};
  const std::vector<double> s2{1, 0};
  const std::vector<std::uint8_t> mask{1, 1};
  // First update: Q = 0.5*0 + 0.5*(3 + 0) = 1.5.
  q.update(s, 0, 3.0, s2, mask, false);
  EXPECT_DOUBLE_EQ(q_value(q, s, 0), 1.5);
  // Teach s2 a value, then update s again: Q = 0.5*1.5 + 0.5*(3 + 2) = 3.25.
  q.update(s2, 1, 4.0, {1, 1}, mask, true);  // Q[s2,1] = 0.5*4 = 2
  EXPECT_DOUBLE_EQ(q_value(q, s2, 1), 2.0);
  q.update(s, 0, 3.0, s2, mask, false);
  EXPECT_DOUBLE_EQ(q_value(q, s, 0), 3.25);
}

TEST(Tabular, TerminalSuppressesBootstrap) {
  TabularQLearning q(2, {.alpha = 1.0, .gamma = 1.0});
  const std::vector<double> s{0, 0};
  const std::vector<double> s2{1, 0};
  q.update(s2, 0, 100.0, {0, 1}, {1, 1}, true);
  q.update(s, 0, 1.0, s2, {1, 1}, true);  // terminal: ignore V(s2)
  EXPECT_DOUBLE_EQ(q_value(q, s, 0), 1.0);
}

TEST(Tabular, StateValueRespectsMask) {
  TabularQLearning q(3, {.alpha = 1.0, .gamma = 1.0});
  const std::vector<double> s{0, 1, 0};
  q.update(s, 0, 5.0, {1, 1, 1}, {1, 1, 1}, true);
  q.update(s, 1, 9.0, {1, 1, 1}, {1, 1, 1}, true);
  EXPECT_DOUBLE_EQ(q.state_value(s, {1, 1, 1}), 9.0);
  EXPECT_DOUBLE_EQ(q.state_value(s, {1, 0, 1}), 5.0);  // best masked out
  EXPECT_DOUBLE_EQ(q.state_value(s, {0, 0, 1}), 0.0);
}

TEST(Tabular, GreedySelectionPicksBestAllowed) {
  TabularQLearning q(3, {.alpha = 1.0, .gamma = 0.9});
  Rng rng(4);
  const std::vector<double> s{0, 0, 0};
  q.update(s, 2, 10.0, {1, 0, 0}, {1, 1, 1}, true);
  EXPECT_EQ(q.select_action(s, {1, 1, 1}, 0.0, rng), 2u);
  // With action 2 masked, falls back to the best remaining (all zero ->
  // either 0 or 1, both valid).
  const auto a = q.select_action(s, {1, 1, 0}, 0.0, rng);
  EXPECT_LT(a, 2u);
}

TEST(Tabular, ExplorationAvoidsBestAction) {
  TabularQLearning q(3, {.alpha = 1.0, .gamma = 0.9});
  Rng rng(5);
  const std::vector<double> s{0, 0, 0};
  q.update(s, 0, 10.0, {1, 0, 0}, {1, 1, 1}, true);
  // epsilon = 1: always explores, so never the greedy action 0.
  for (int i = 0; i < 50; ++i)
    EXPECT_NE(q.select_action(s, {1, 1, 1}, 1.0, rng), 0u);
}

TEST(Tabular, SingleAllowedActionIgnoresEpsilon) {
  TabularQLearning q(3, {});
  Rng rng(6);
  EXPECT_EQ(q.select_action({0, 0, 0}, {0, 1, 0}, 1.0, rng), 1u);
}

TEST(Tabular, NoAllowedActionThrows) {
  TabularQLearning q(2, {});
  Rng rng(7);
  EXPECT_THROW(q.select_action({0, 0}, {0, 0}, 0.0, rng), CheckError);
}

TEST(Tabular, DistinctStatesGetDistinctRows) {
  TabularQLearning q(2, {.alpha = 1.0, .gamma = 0.0});
  q.update({0, 0}, 0, 1.0, {1, 1}, {1, 1}, true);
  q.update({1, 0}, 0, 2.0, {1, 1}, {1, 1}, true);
  EXPECT_EQ(q.table_size(), 2u);
  EXPECT_DOUBLE_EQ(q_value(q, {0, 0}, 0), 1.0);
  EXPECT_DOUBLE_EQ(q_value(q, {1, 0}, 0), 2.0);
}

TEST(Tabular, LargeStatePackingIsConsistent) {
  // States wider than 64 bits exercise multi-word keys.
  TabularQLearning q(2, {.alpha = 1.0, .gamma = 0.0});
  std::vector<double> s1(130, 0.0), s2(130, 0.0);
  s1[128] = 1.0;
  s2[129] = 1.0;
  q.update(s1, 0, 1.0, s1, {1, 1}, true);
  q.update(s2, 0, 2.0, s2, {1, 1}, true);
  EXPECT_EQ(q.table_size(), 2u);
  EXPECT_DOUBLE_EQ(q_value(q, s1, 0), 1.0);
  EXPECT_DOUBLE_EQ(q_value(q, s2, 0), 2.0);
}

TEST(Tabular, LearnsTwoStepChain) {
  // Chain MDP: s0 -a0-> s1 -a1-> terminal(+10). With enough sweeps the
  // Q-values propagate backwards (the Fig. 5 mechanism).
  TabularQLearning q(2, {.alpha = 0.5, .gamma = 1.0});
  const std::vector<double> s0{0, 0};
  const std::vector<double> s1{1, 0};
  const std::vector<std::uint8_t> all{1, 1};
  for (int it = 0; it < 60; ++it) {
    q.update(s0, 0, -1.0, s1, all, false);
    q.update(s1, 1, 10.0, {1, 1}, all, true);
  }
  EXPECT_NEAR(q_value(q, s1, 1), 10.0, 1e-6);
  EXPECT_NEAR(q_value(q, s0, 0), 9.0, 1e-6);
  Rng rng(8);
  EXPECT_EQ(q.select_action(s0, all, 0.0, rng), 0u);
}

}  // namespace
}  // namespace drcell::rl
