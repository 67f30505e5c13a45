#include <gtest/gtest.h>

#include <memory>

#include "mcs/environment.h"
#include "test_helpers.h"

namespace drcell::mcs {
namespace {

std::shared_ptr<const SensingTask> toy_task_ptr(std::size_t cells = 6,
                                                std::size_t cycles = 12) {
  return std::make_shared<const SensingTask>(
      testing::make_toy_task(cells, cycles));
}

TEST(Environment, InitialStateIsEmpty) {
  auto env = testing::make_toy_environment(toy_task_ptr(), 0.5);
  EXPECT_EQ(env.current_cycle(), 0u);
  EXPECT_FALSE(env.episode_done());
  const auto state = env.state();
  for (double v : state) EXPECT_EQ(v, 0.0);
  const auto mask = env.action_mask();
  for (auto m : mask) EXPECT_EQ(m, 1);
}

TEST(Environment, StepMarksSelectionAndCharges) {
  auto env = testing::make_toy_environment(toy_task_ptr(), 1e-9);
  const auto r = env.step(3);
  EXPECT_EQ(r.reward, -1.0);  // cost only, quality not yet checkable
  EXPECT_FALSE(r.cycle_complete);
  EXPECT_TRUE(env.selections().selected(3, 0));
  EXPECT_EQ(env.action_mask()[3], 0);
  EXPECT_EQ(env.selections().selected_cells_in_cycle(0).size(), 1u);
}

TEST(Environment, DoubleSelectionThrows) {
  auto env = testing::make_toy_environment(toy_task_ptr(), 1e9);
  env.step(0);
  EXPECT_THROW(env.step(0), CheckError);
}

TEST(Environment, OutOfRangeActionThrows) {
  auto env = testing::make_toy_environment(toy_task_ptr(6, 12), 1e9);
  EXPECT_THROW(env.step(6), CheckError);
}

TEST(Environment, GenerousEpsilonCompletesAtMinObservations) {
  EnvOptions opt;
  opt.min_observations = 3;
  auto env = testing::make_toy_environment(toy_task_ptr(), 1e9, opt);
  env.step(0);
  env.step(1);
  const auto r = env.step(2);
  EXPECT_TRUE(r.cycle_complete);
  EXPECT_TRUE(r.quality_satisfied);
  // R defaults to m = 6, so the closing step earns 6 - 1 = 5.
  EXPECT_DOUBLE_EQ(r.reward, 5.0);
  EXPECT_EQ(env.current_cycle(), 1u);
}

TEST(Environment, ImpossibleEpsilonForcesFullSensing) {
  // Zero epsilon on a noisy task: only sensing everything satisfies
  // (error over an empty set = 0).
  auto task = std::make_shared<const SensingTask>(
      testing::make_toy_task(4, 3, /*noise=*/0.5));
  EnvOptions opt;
  opt.min_observations = 1;
  auto env =
      mcs::SparseMcsEnvironment(task, testing::default_engine(),
                                std::make_shared<GroundTruthGate>(0.0), opt);
  StepResult last;
  for (std::size_t cell = 0; cell < 4; ++cell) last = env.step(cell);
  EXPECT_TRUE(last.cycle_complete);
  EXPECT_TRUE(last.quality_satisfied);
  EXPECT_EQ(last.true_cycle_error, 0.0);
  EXPECT_EQ(env.stats().cycle_selected.back(), 4u);
}

TEST(Environment, EpisodeEndsAfterLastCycle) {
  auto env = testing::make_toy_environment(toy_task_ptr(6, 2), 1e9);
  // Each cycle completes after min_observations = 3 steps (huge epsilon).
  for (int step = 0; step < 3; ++step) env.step(step);
  EXPECT_FALSE(env.episode_done());
  StepResult last;
  for (int step = 0; step < 3; ++step) last = env.step(step);
  EXPECT_TRUE(last.episode_done);
  EXPECT_TRUE(env.episode_done());
  EXPECT_THROW(env.step(5), CheckError);
}

TEST(Environment, ResetRestoresInitialState) {
  auto env = testing::make_toy_environment(toy_task_ptr(), 1e9);
  env.step(0);
  env.step(1);
  env.reset();
  EXPECT_EQ(env.current_cycle(), 0u);
  EXPECT_EQ(testing::total_selected(env.selections()), 0u);
  EXPECT_EQ(env.stats().total_selections, 0u);
  // The reset happened 2 steps into cycle 0 (min_observations = 3): the
  // cycle count restarts from zero, so 2 more steps leave cycle 0 open and
  // the third closes it with exactly 3 selections.
  for (std::size_t cell = 0; cell < 2; ++cell) {
    const StepResult r = env.step(cell);
    EXPECT_FALSE(r.cycle_complete);
    EXPECT_EQ(env.current_cycle(), 0u);
  }
  EXPECT_TRUE(env.step(2).cycle_complete);
  EXPECT_EQ(env.current_cycle(), 1u);
  ASSERT_EQ(env.stats().cycle_selected.size(), 1u);
  EXPECT_EQ(env.stats().cycle_selected[0], 3u);
}

TEST(Environment, StatsAccumulateAcrossCycles) {
  auto env = testing::make_toy_environment(toy_task_ptr(6, 3), 1e9);
  for (int cycle = 0; cycle < 3; ++cycle)
    for (int step = 0; step < 3; ++step) env.step(step);
  const auto& stats = env.stats();
  EXPECT_EQ(stats.cycles, 3u);
  EXPECT_EQ(stats.total_selections, 9u);
  EXPECT_DOUBLE_EQ(stats.average_selections_per_cycle(), 3.0);
  EXPECT_EQ(stats.cycle_errors.size(), 3u);
  EXPECT_DOUBLE_EQ(stats.total_cost, 9.0);
  // reward: each cycle = -3 + 6 = 3.
  EXPECT_DOUBLE_EQ(stats.total_reward, 9.0);
}

TEST(Environment, QualitySatisfactionRatio) {
  EpisodeStats stats;
  stats.cycles = 4;
  stats.cycle_errors = {0.1, 0.5, 0.2, 0.9};
  EXPECT_DOUBLE_EQ(stats.quality_satisfaction_ratio(0.3), 0.5);
  EXPECT_DOUBLE_EQ(stats.quality_satisfaction_ratio(1.0), 1.0);
}

TEST(Environment, StateReflectsHistoryAcrossCycles) {
  EnvOptions opt;
  opt.history_cycles = 2;
  auto env = testing::make_toy_environment(toy_task_ptr(6, 4), 1e9, opt);
  env.step(0);
  env.step(1);
  env.step(2);  // cycle 0 completes
  const auto state = env.state();
  ASSERT_EQ(state.size(), 12u);
  // Slice 0 = previous cycle (cells 0..2 selected), slice 1 = empty current.
  EXPECT_EQ(state[0], 1.0);
  EXPECT_EQ(state[1], 1.0);
  EXPECT_EQ(state[2], 1.0);
  EXPECT_EQ(state[3], 0.0);
  for (std::size_t i = 6; i < 12; ++i) EXPECT_EQ(state[i], 0.0);
}

TEST(Environment, WindowSlidesWithCycles) {
  EnvOptions opt;
  opt.inference_window = 2;
  auto env = testing::make_toy_environment(toy_task_ptr(6, 5), 1e9, opt);
  EXPECT_EQ(env.current_window_col(), 0u);
  for (int step = 0; step < 3; ++step) env.step(step);  // finish cycle 0
  EXPECT_EQ(env.current_window_col(), 1u);              // window = {0, 1}
  for (int step = 0; step < 3; ++step) env.step(step);  // finish cycle 1
  EXPECT_EQ(env.current_window_col(), 1u);              // window = {1, 2}
  EXPECT_EQ(env.current_cycle(), 2u);
  // Past observations inside the window carry over.
  EXPECT_EQ(env.observation_window().observed_count_in_col(0), 3u);
}

TEST(Environment, MaxSelectionsCapForcesCycleEnd) {
  auto task = std::make_shared<const SensingTask>(
      testing::make_toy_task(6, 2, /*noise=*/1.0));
  EnvOptions opt;
  opt.min_observations = 1;
  opt.max_selections_per_cycle = 2;
  auto env = mcs::SparseMcsEnvironment(
      task, testing::default_engine(),
      std::make_shared<GroundTruthGate>(0.0), opt);  // unsatisfiable
  env.step(0);
  const auto r = env.step(1);
  EXPECT_TRUE(r.cycle_complete);
  EXPECT_FALSE(r.quality_satisfied);  // cap hit without quality
  // No bonus when q = 0: reward is just -c.
  EXPECT_DOUBLE_EQ(r.reward, -1.0);
}

TEST(Environment, CustomRewardBonusAndCost) {
  EnvOptions opt;
  opt.reward_bonus = 10.0;
  opt.cost = 2.0;
  opt.min_observations = 1;
  auto env = testing::make_toy_environment(toy_task_ptr(), 1e9, opt);
  const auto r = env.step(0);
  EXPECT_TRUE(r.cycle_complete);
  EXPECT_DOUBLE_EQ(r.reward, 10.0 - 2.0);
}

TEST(Environment, HeterogeneousCellCosts) {
  EnvOptions opt;
  opt.min_observations = 2;
  opt.cell_costs = {1.0, 5.0, 1.0, 1.0, 1.0, 1.0};
  auto env = testing::make_toy_environment(toy_task_ptr(), 1e9, opt);
  const auto r1 = env.step(1);
  EXPECT_DOUBLE_EQ(r1.reward, -5.0);
  const auto r2 = env.step(0);  // completes (min_obs = 2, huge eps)
  EXPECT_DOUBLE_EQ(r2.reward, 6.0 - 1.0);
  EXPECT_DOUBLE_EQ(env.stats().total_cost, 6.0);
}

TEST(Environment, CellCostSizeMismatchThrows) {
  EnvOptions opt;
  opt.cell_costs = {1.0, 2.0};  // task has 6 cells
  EXPECT_THROW(testing::make_toy_environment(toy_task_ptr(), 1.0, opt),
               CheckError);
}

TEST(Environment, RunCycleDrivesSelectorToCompletion) {
  auto env = testing::make_toy_environment(toy_task_ptr(), 1e9);
  std::size_t next = 0;
  const auto r = env.run_cycle(
      [&next](const SparseMcsEnvironment&) { return next++; });
  EXPECT_TRUE(r.cycle_complete);
  EXPECT_EQ(env.stats().cycle_selected.back(), 3u);  // min_observations
}

TEST(Environment, ErrorShapingRewardsErrorReduction) {
  // Twin environments over the same task and action sequence, one with
  // error_shaping enabled. Cold-start engines (warm_start = false) make
  // every inference a deterministic function of the window alone, so a
  // reference engine can reproduce the shaped env's per-step errors exactly.
  auto task = std::make_shared<const SensingTask>(
      testing::make_toy_task(6, 4, /*noise=*/0.3));
  cs::MatrixCompletionOptions eng_opt;
  eng_opt.rank = 3;
  eng_opt.warm_start = false;
  EnvOptions opt;
  opt.min_observations = 2;
  opt.max_selections_per_cycle = 4;
  const double kScale = 10.0;
  EnvOptions shaped_opt = opt;
  shaped_opt.error_shaping = kScale;
  auto gate = std::make_shared<GroundTruthGate>(1e-12);  // cycles run to cap
  SparseMcsEnvironment plain(
      task, std::make_shared<cs::MatrixCompletion>(eng_opt), gate, opt);
  SparseMcsEnvironment shaped(
      task, std::make_shared<cs::MatrixCompletion>(eng_opt), gate, shaped_opt);
  cs::MatrixCompletion ref(eng_opt);
  auto ref_error = [&] {
    return true_cycle_error(*task, shaped.observation_window(),
                            shaped.current_window_col(),
                            ref.infer(shaped.observation_window()),
                            shaped.current_cycle());
  };

  // Below min_observations: no measurable error yet, rewards identical.
  StepResult rp = plain.step(0);
  StepResult rs = shaped.step(0);
  EXPECT_DOUBLE_EQ(rs.reward, rp.reward);
  // First measurable error has no predecessor to difference against.
  rp = plain.step(1);
  rs = shaped.step(1);
  EXPECT_DOUBLE_EQ(rs.reward, rp.reward);
  double prev_err = ref_error();
  // From here every step earns its own marginal error reduction.
  rp = plain.step(2);
  rs = shaped.step(2);
  const double cur_err = ref_error();
  EXPECT_NEAR(rs.reward - rp.reward, kScale * (prev_err - cur_err), 1e-12);
  prev_err = cur_err;
  // The cap-hitting step is shaped too; its error arrives in the result.
  rp = plain.step(3);
  rs = shaped.step(3);
  ASSERT_TRUE(rs.cycle_complete);
  EXPECT_FALSE(rs.quality_satisfied);
  EXPECT_NEAR(rs.reward - rp.reward,
              kScale * (prev_err - rs.true_cycle_error), 1e-12);
  // A new cycle differences from scratch: its first measurable error is
  // unshaped rather than compared against the previous cycle's final error.
  rp = plain.step(0);
  rs = shaped.step(0);
  EXPECT_DOUBLE_EQ(rs.reward, rp.reward);
  rp = plain.step(1);
  rs = shaped.step(1);
  EXPECT_DOUBLE_EQ(rs.reward, rp.reward);
}

TEST(Environment, TrueErrorDropsWithMoreSensing) {
  // Compare final cycle error when sensing 2 cells vs 5 of 6.
  auto run = [&](std::size_t sense) {
    auto task = toy_task_ptr(6, 1);
    EnvOptions opt;
    opt.min_observations = 1;
    opt.max_selections_per_cycle = sense;
    auto env = mcs::SparseMcsEnvironment(
        task, testing::default_engine(),
        std::make_shared<GroundTruthGate>(0.0), opt);
    StepResult last;
    for (std::size_t cell = 0; cell < sense; ++cell) last = env.step(cell);
    return last.true_cycle_error;
  };
  EXPECT_LE(run(5), run(2));
}

}  // namespace
}  // namespace drcell::mcs
