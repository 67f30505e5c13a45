// Warm-start behaviour of the environment: the fully-observed
// preliminary-study block must be visible to the inference window and must
// measurably improve early-cycle inference (the reason the paper's
// organiser runs a preliminary study at all).
#include <gtest/gtest.h>

#include <memory>

#include "mcs/environment.h"
#include "test_helpers.h"

namespace drcell::mcs {
namespace {

struct WarmStartFixture : public ::testing::Test {
  WarmStartFixture() : full(testing::make_gp_task(3, 60, 21)) {}

  SparseMcsEnvironment make_env(std::size_t warm_cycles,
                                std::size_t window = 12,
                                std::size_t min_obs = 3) {
    auto task = std::make_shared<const SensingTask>(
        full.slice_cycles(warm_cycles, 60));
    EnvOptions options;
    options.inference_window = window;
    options.min_observations = min_obs;
    if (warm_cycles > 0)
      options.warm_start = full.slice_cycles(0, warm_cycles).ground_truth();
    return SparseMcsEnvironment(
        std::move(task), testing::default_engine(),
        std::make_shared<GroundTruthGate>(0.0), options);
  }

  SensingTask full;
};

TEST_F(WarmStartFixture, WindowIncludesWarmColumnsAtCycleZero) {
  auto env = make_env(/*warm_cycles=*/12, /*window=*/8);
  // Window: 7 warm columns + the (empty) current one.
  EXPECT_EQ(env.observation_window().cols(), 8u);
  EXPECT_EQ(env.current_window_col(), 7u);
  for (std::size_t c = 0; c < 7; ++c)
    EXPECT_EQ(env.observation_window().observed_count_in_col(c), 9u)
        << "warm column " << c << " should be dense";
  EXPECT_EQ(env.observation_window().observed_count_in_col(7), 0u);
}

TEST_F(WarmStartFixture, WarmColumnsCarryGroundTruthValues) {
  auto env = make_env(/*warm_cycles=*/12, /*window=*/4);
  // Window covers virtual cycles -3..0; warm col h+v = 12-3 .. 12-1.
  const auto& window = env.observation_window();
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t cell = 0; cell < 9; ++cell)
      EXPECT_EQ(window.value(cell, c), full.truth(cell, 9 + c));
}

TEST_F(WarmStartFixture, WarmBlockSlidesOutAsCyclesAdvance) {
  auto env = make_env(/*warm_cycles=*/2, /*window=*/4, /*min_obs=*/1);
  // Finish three cycles (huge epsilon is not available here: the gate is
  // exact with epsilon 0, so sense everything to complete deterministically).
  for (int cycle = 0; cycle < 3; ++cycle)
    for (std::size_t cell = 0; cell < 9; ++cell) env.step(cell);
  // Now at cycle 3; window of 4 covers cycles 0..3 — no warm columns left.
  EXPECT_EQ(env.current_cycle(), 3u);
  EXPECT_EQ(env.current_window_col(), 3u);
  EXPECT_EQ(env.observation_window().cols(), 4u);
}

TEST_F(WarmStartFixture, ShorterWarmBlockThanWindowIsClipped) {
  auto env = make_env(/*warm_cycles=*/3, /*window=*/10);
  // Only 3 warm columns exist; window is clipped to 3 + current.
  EXPECT_EQ(env.observation_window().cols(), 4u);
  EXPECT_EQ(env.current_window_col(), 3u);
}

TEST_F(WarmStartFixture, WarmStartImprovesEarlyInference) {
  // Same deployment cycles with and without the preliminary block; compare
  // the true error of the first completed cycle at an equal budget.
  auto run_first_cycle_error = [&](std::size_t warm_cycles) {
    auto task = std::make_shared<const SensingTask>(
        full.slice_cycles(12, 60));
    EnvOptions options;
    options.inference_window = 12;
    options.min_observations = 1;
    options.max_selections_per_cycle = 3;
    if (warm_cycles > 0)
      options.warm_start =
          full.slice_cycles(12 - warm_cycles, 12).ground_truth();
    SparseMcsEnvironment env(task, testing::default_engine(),
                             std::make_shared<GroundTruthGate>(0.0), options);
    StepResult last;
    for (std::size_t cell : {0u, 4u, 8u}) last = env.step(cell);
    return last.true_cycle_error;
  };
  // Average over the deterministic single comparison: warm must not hurt
  // and should usually help substantially on the first cycle.
  EXPECT_LE(run_first_cycle_error(11), run_first_cycle_error(0) + 1e-9);
}

TEST_F(WarmStartFixture, WrongWarmStartShapeThrows) {
  auto task =
      std::make_shared<const SensingTask>(full.slice_cycles(12, 60));
  EnvOptions options;
  options.warm_start = Matrix(4, 12);  // task has 9 cells
  EXPECT_THROW(SparseMcsEnvironment(task, testing::default_engine(),
                                    std::make_shared<GroundTruthGate>(0.5),
                                    options),
               CheckError);
}

TEST_F(WarmStartFixture, NonFiniteWarmStartThrows) {
  auto task =
      std::make_shared<const SensingTask>(full.slice_cycles(12, 60));
  EnvOptions options;
  options.warm_start = Matrix(9, 12);
  options.warm_start(3, 3) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SparseMcsEnvironment(task, testing::default_engine(),
                                    std::make_shared<GroundTruthGate>(0.5),
                                    options),
               CheckError);
}

TEST_F(WarmStartFixture, ResetKeepsWarmStart) {
  auto env = make_env(/*warm_cycles=*/12, /*window=*/8);
  for (std::size_t cell = 0; cell < 9; ++cell) env.step(cell);
  env.reset();
  EXPECT_EQ(env.observation_window().cols(), 8u);
  EXPECT_EQ(env.observation_window().observed_count_in_col(0), 9u);
}

}  // namespace
}  // namespace drcell::mcs
