// Parameterised property-style sweeps over seeds and sizes: invariants that
// must hold for *every* configuration, not just hand-picked examples.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/random_selector.h"
#include "cs/matrix_completion.h"
#include "mcs/environment.h"
#include "rl/epsilon.h"
#include "rl/replay_buffer.h"
#include "test_helpers.h"

namespace drcell {
namespace {

// ---------------------------------------------------------------------------
// Environment invariants across seeds / shapes.

struct EnvCase {
  std::size_t cells;
  std::size_t cycles;
  std::size_t history;
  std::size_t min_obs;
  std::uint64_t seed;
};

// Readable test ids ("cells=4/cycles=6/...") instead of a byte dump.
void PrintTo(const EnvCase& c, std::ostream* os) {
  *os << "cells=" << c.cells << "/cycles=" << c.cycles
      << "/history=" << c.history << "/min_obs=" << c.min_obs
      << "/seed=" << c.seed;
}

class EnvironmentProperty : public ::testing::TestWithParam<EnvCase> {};

TEST_P(EnvironmentProperty, EpisodeInvariantsHold) {
  const auto& param = GetParam();
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(param.cells, param.cycles, 0.1, param.seed));
  mcs::EnvOptions opt;
  opt.history_cycles = param.history;
  opt.min_observations = param.min_obs;
  opt.inference_window = 5;
  auto env = testing::make_toy_environment(task, 0.6, opt);
  baselines::RandomSelector selector(param.seed);

  const double bonus = static_cast<double>(param.cells);
  double recomputed_reward = 0.0;
  while (!env.episode_done()) {
    // State vector is always k*m wide and binary.
    const auto state = env.state();
    EXPECT_EQ(state.size(), param.history * param.cells);
    for (double v : state) EXPECT_TRUE(v == 0.0 || v == 1.0);

    // Mask marks exactly the unselected cells of the current cycle.
    const auto mask = env.action_mask();
    std::size_t allowed = 0;
    for (auto m : mask) allowed += m;
    EXPECT_EQ(allowed, param.cells - env.observations_this_cycle());

    const auto action = selector.select(env);
    EXPECT_EQ(mask[action], 1);
    const auto result = env.step(action);

    // Reward decomposition R·q − c.
    if (result.cycle_complete && result.quality_satisfied)
      EXPECT_DOUBLE_EQ(result.reward, bonus - 1.0);
    else
      EXPECT_DOUBLE_EQ(result.reward, -1.0);
    recomputed_reward += result.reward;
  }

  const auto& stats = env.stats();
  // Every cycle was completed exactly once.
  EXPECT_EQ(stats.cycles, param.cycles);
  EXPECT_EQ(stats.cycle_selected.size(), param.cycles);
  EXPECT_EQ(stats.cycle_errors.size(), param.cycles);
  // Selection totals agree across bookkeeping paths.
  std::size_t sum = 0;
  for (auto s : stats.cycle_selected) {
    EXPECT_GE(s, std::min(param.min_obs, param.cells));
    EXPECT_LE(s, param.cells);
    sum += s;
  }
  EXPECT_EQ(sum, stats.total_selections);
  EXPECT_EQ(env.selections().selected_count(), stats.total_selections);
  EXPECT_DOUBLE_EQ(stats.total_reward, recomputed_reward);
  // No double selection anywhere in the matrix (mark() would have thrown,
  // but verify the matrix is consistent with per-cycle counts).
  for (std::size_t t = 0; t < param.cycles; ++t)
    EXPECT_EQ(env.selections().selected_count_in_cycle(t),
              stats.cycle_selected[t]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnvironmentProperty,
    ::testing::Values(EnvCase{4, 6, 1, 1, 1}, EnvCase{4, 6, 2, 2, 2},
                      EnvCase{6, 10, 2, 3, 3}, EnvCase{6, 10, 4, 2, 4},
                      EnvCase{9, 8, 3, 3, 5}, EnvCase{5, 12, 2, 1, 6},
                      EnvCase{8, 5, 5, 4, 7}, EnvCase{3, 20, 2, 1, 8}));

// ---------------------------------------------------------------------------
// Replay buffer never exceeds capacity and keeps only recent items.

class ReplayProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ReplayProperty, CapacityAndRecency) {
  const auto [capacity, inserts] = GetParam();
  rl::ReplayBuffer buf(capacity);
  for (std::size_t i = 0; i < inserts; ++i) {
    rl::EncodedExperience e;
    e.state.reset(1, 1);
    e.action = 0;
    e.reward = static_cast<double>(i);
    e.next_state.reset(1, 1);
    e.next_mask = {1};
    buf.add(std::move(e));
    EXPECT_LE(buf.size(), capacity);
  }
  EXPECT_EQ(buf.size(), std::min(capacity, inserts));
  // All retained rewards must be from the most recent window.
  const double oldest_allowed =
      inserts > capacity ? static_cast<double>(inserts - capacity) : 0.0;
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_GE(buf.at(i).reward, oldest_allowed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReplayProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 16, 64),
                       ::testing::Values<std::size_t>(0, 1, 16, 100)));

// ---------------------------------------------------------------------------
// Epsilon schedules are monotone non-increasing and bounded.

}  // namespace

namespace rl {
// Names the decay in the parameterised test ids (found by ADL), which
// gtest would otherwise print as a raw byte dump.
void PrintTo(EpsilonSchedule::Decay decay, std::ostream* os) {
  *os << (decay == EpsilonSchedule::Decay::kLinear ? "kLinear"
                                                    : "kExponential");
}
}  // namespace rl

namespace {

class EpsilonProperty
    : public ::testing::TestWithParam<std::tuple<double, double, std::size_t,
                                                 rl::EpsilonSchedule::Decay>> {
};

TEST_P(EpsilonProperty, MonotoneAndBounded) {
  const auto [start, end, steps, decay] = GetParam();
  rl::EpsilonSchedule s(start, end, steps, decay);
  double prev = start + 1e-12;
  for (std::size_t t = 0; t < 3 * steps; t += std::max<std::size_t>(1, steps / 37)) {
    const double v = s.value(t);
    EXPECT_LE(v, prev + 1e-12);
    EXPECT_GE(v, end - 1e-12);
    EXPECT_LE(v, start + 1e-12);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EpsilonProperty,
    ::testing::Combine(
        ::testing::Values(1.0, 0.5),
        ::testing::Values(0.0, 0.05),
        ::testing::Values<std::size_t>(10, 1000),
        ::testing::Values(rl::EpsilonSchedule::Decay::kLinear,
                          rl::EpsilonSchedule::Decay::kExponential)));

// ---------------------------------------------------------------------------
// Matrix completion: error shrinks (weakly) as observations grow, for any
// seed; estimates are always finite.

class CompletionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompletionProperty, MonotoneImprovementAcrossDensity) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  // Rank-2 ground truth.
  const std::size_t m = 10, n = 14;
  std::vector<double> u(m), v(n), u2(m), v2(n);
  for (auto& x : u) x = rng.uniform(0.5, 1.5);
  for (auto& x : v) x = rng.uniform(0.5, 1.5);
  for (auto& x : u2) x = rng.normal();
  for (auto& x : v2) x = rng.normal();
  Matrix d(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      d(i, j) = 5.0 + 2.0 * u[i] * v[j] + 0.5 * u2[i] * v2[j];

  const cs::MatrixCompletion mc;
  auto mean_error_at = [&](double density) {
    double total = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      Rng sample_rng(seed * 100 + rep + static_cast<std::uint64_t>(density * 10));
      cs::PartialMatrix p(m, n);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
          if (sample_rng.bernoulli(density)) p.set(i, j, d(i, j));
      const Matrix est = mc.infer(p);
      EXPECT_FALSE(est.has_non_finite());
      double err = 0.0;
      std::size_t count = 0;
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
          if (!p.observed(i, j)) {
            err += std::fabs(est(i, j) - d(i, j));
            ++count;
          }
      total += count ? err / static_cast<double>(count) : 0.0;
    }
    return total / 3.0;
  };
  EXPECT_LT(mean_error_at(0.7), mean_error_at(0.1) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompletionProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// LOO gate probability is monotone in epsilon for any observation pattern.

class GateProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GateProperty, ProbabilityMonotoneInEpsilon) {
  const std::uint64_t seed = GetParam();
  auto task = testing::make_toy_task(6, 6, 0.3, seed);
  auto engine = testing::default_engine();
  cs::PartialMatrix window(6, 3);
  Rng rng(seed);
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t cell = 0; cell < 6; ++cell)
      if (rng.bernoulli(0.7)) window.set(cell, c, task.truth(cell, c));
  // Ensure at least two observations in the assessed cycle.
  window.set(0, 2, task.truth(0, 2));
  window.set(3, 2, task.truth(3, 2));
  if (rng.bernoulli(0.5)) window.set(5, 2, task.truth(5, 2));

  const Matrix inferred = engine->infer(window);
  const mcs::QualityContext ctx{task, window, 2, 2, &inferred, *engine};
  double prev = -1.0;
  for (double eps : {0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0}) {
    const double p = mcs::LooBayesianGate(eps, 0.9).probability(ctx);
    EXPECT_GE(p, prev - 1e-12);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GateProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace drcell
