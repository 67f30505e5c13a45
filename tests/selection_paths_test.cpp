// Tests for the O(1) selection loop: the environment's incrementally
// maintained unsensed set / action mask and the SelectionMatrix's per-cycle
// selection lists, each checked against a naive rebuild-from-scratch
// reference under select / cycle-turnover / reset churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/random_selector.h"
#include "mcs/environment.h"
#include "mcs/selection_matrix.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace drcell {
namespace {

/// Seed-equivalent references: rebuild the mask and the allowed-cell list by
/// scanning the selection matrix, the way the environment did before the
/// incremental set.
std::vector<std::uint8_t> naive_mask(const mcs::SparseMcsEnvironment& env) {
  std::vector<std::uint8_t> mask(env.num_cells(), 0);
  if (env.episode_done()) return mask;
  for (std::size_t cell = 0; cell < env.num_cells(); ++cell)
    if (!env.selections().selected(cell, env.current_cycle())) mask[cell] = 1;
  return mask;
}

std::vector<std::size_t> naive_allowed(const mcs::SparseMcsEnvironment& env) {
  std::vector<std::size_t> allowed;
  if (env.episode_done()) return allowed;
  for (std::size_t cell = 0; cell < env.num_cells(); ++cell)
    if (!env.selections().selected(cell, env.current_cycle()))
      allowed.push_back(cell);
  return allowed;
}

/// The incremental structures must agree with the naive rebuilds in *content*
/// (the unsensed set's order is unspecified), and the O(1) membership test
/// with both.
void expect_matches_naive_reference(const mcs::SparseMcsEnvironment& env) {
  EXPECT_EQ(env.action_mask(), naive_mask(env));

  std::vector<std::size_t> unsensed = env.unsensed_cells();
  std::sort(unsensed.begin(), unsensed.end());
  EXPECT_EQ(unsensed, naive_allowed(env));

  for (std::size_t cell = 0; cell < env.num_cells(); ++cell) {
    const bool allowed =
        !env.episode_done() &&
        !env.selections().selected(cell, env.current_cycle());
    EXPECT_EQ(env.can_select(cell), allowed) << "cell " << cell;
  }
}

TEST(UnsensedSet, MatchesNaiveRebuildUnderEpisodeChurn) {
  // Random episodes across shapes and seeds, checking the incremental state
  // after every step (including the cycle turnovers that restore the
  // finished cycle's selections) and after every reset.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::size_t cells = 4 + 2 * static_cast<std::size_t>(seed);
    auto task = std::make_shared<const mcs::SensingTask>(
        testing::make_toy_task(cells, 6, 0.1, seed));
    mcs::EnvOptions opt;
    opt.min_observations = 1 + static_cast<std::size_t>(seed % 3);
    opt.inference_window = 4;
    auto env = testing::make_toy_environment(task, 0.6, opt);
    baselines::RandomSelector selector(seed);

    expect_matches_naive_reference(env);
    for (int episode = 0; episode < 2; ++episode) {
      while (!env.episode_done()) {
        const auto action = selector.select(env);
        EXPECT_TRUE(env.can_select(action));
        (void)env.step(action);
        expect_matches_naive_reference(env);
      }
      env.reset();
      expect_matches_naive_reference(env);
    }
  }
}

TEST(UnsensedSet, EmptyAfterEpisodeEndAndRestoredByReset) {
  auto env = testing::make_toy_environment(
      std::make_shared<const mcs::SensingTask>(testing::make_toy_task(5, 2)),
      1e9);
  while (!env.episode_done())
    (void)env.step(env.unsensed_cells().front());
  EXPECT_TRUE(env.unsensed_cells().empty());
  for (std::size_t cell = 0; cell < env.num_cells(); ++cell)
    EXPECT_FALSE(env.can_select(cell));
  expect_matches_naive_reference(env);

  env.reset();
  EXPECT_EQ(env.unsensed_cells().size(), env.num_cells());
  expect_matches_naive_reference(env);
}

TEST(SelectionMatrixLists, PerCycleListsStaySortedAndConsistent) {
  // The incremental per-cycle lists behind selected_cells_in_cycle() must
  // match a dense scan of the bit grid whatever the mark order.
  mcs::SelectionMatrix s(9, 4);
  Rng rng(42);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t cell = 0; cell < 9; ++cell)
    for (std::size_t cycle = 0; cycle < 4; ++cycle)
      pairs.push_back({cell, cycle});
  for (std::size_t i = pairs.size(); i > 1; --i)
    std::swap(pairs[i - 1], pairs[rng.uniform_index(i)]);

  const auto dense_selected = [&s](std::size_t cycle) {
    std::vector<std::size_t> out;
    for (std::size_t cell = 0; cell < s.cells(); ++cell)
      if (s.selected(cell, cycle)) out.push_back(cell);
    return out;
  };

  for (const auto& [cell, cycle] : pairs) {
    s.mark(cell, cycle);
    for (std::size_t t = 0; t < s.cycles(); ++t) {
      const auto dense = dense_selected(t);
      EXPECT_EQ(s.selected_cells_in_cycle(t), dense) << "cycle " << t;
      EXPECT_EQ(s.selected_cells_in_cycle(t).size(), dense.size());
    }
  }
  EXPECT_EQ(testing::total_selected(s), pairs.size());

  s.reset();
  for (std::size_t t = 0; t < s.cycles(); ++t) {
    EXPECT_TRUE(s.selected_cells_in_cycle(t).empty());
  }
  EXPECT_EQ(testing::total_selected(s), 0u);
}

}  // namespace
}  // namespace drcell
