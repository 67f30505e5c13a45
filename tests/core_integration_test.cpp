#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "baselines/random_selector.h"
#include "core/agent.h"
#include "core/campaign.h"
#include "core/policy.h"
#include "core/trainer.h"
#include "core/transfer.h"
#include "test_helpers.h"

namespace drcell::core {
namespace {

DrCellConfig fast_config(std::size_t history = 2) {
  DrCellConfig config;
  config.history_cycles = history;
  config.lstm_hidden = 16;
  config.training_episodes = 4;
  config.dqn.batch_size = 16;
  config.dqn.min_replay = 16;
  config.dqn.replay_capacity = 2048;
  config.dqn.target_sync_interval = 50;
  config.dqn.learning_rate = 3e-3;
  config.dqn.epsilon = rl::EpsilonSchedule(1.0, 0.1, 200);
  config.env.min_observations = 2;
  config.env.inference_window = 6;
  config.seed = 13;
  return config;
}

/// Q-values of every action at the state whose 1.0 entries are `ones`.
std::vector<double> all_q_values(DrCellAgent& agent, std::size_t cells,
                                 const std::vector<std::uint32_t>& ones) {
  std::vector<std::uint32_t> actions(cells);
  for (std::size_t a = 0; a < cells; ++a)
    actions[a] = static_cast<std::uint32_t>(a);
  return agent.trainer().candidate_q_values(ones, actions);
}

TEST(DrCellAgent, ConstructionAndGreedyAction) {
  DrCellAgent agent(5, fast_config());
  const std::vector<std::uint32_t> no_ones;  // the all-zero state
  const auto a = agent.greedy_action(no_ones, {1, 1, 1, 1, 1});
  EXPECT_LT(a, 5u);
}

TEST(DrCellAgent, MlpVariantWorks) {
  DrCellConfig config = fast_config();
  config.network = NetworkKind::kMlp;
  config.mlp_hidden = {16};
  DrCellAgent agent(4, config);
  const std::vector<std::uint32_t> no_ones;  // the all-zero state
  EXPECT_LT(agent.greedy_action(no_ones, {1, 1, 1, 1}), 4u);
}

TEST(DrCellAgent, WeightRoundTripPreservesPolicy) {
  DrCellAgent a(5, fast_config());
  std::stringstream ss;
  a.save_weights(ss);

  DrCellConfig other_config = fast_config();
  other_config.seed = 999;  // different init
  DrCellAgent b(5, other_config);
  b.load_weights(ss);

  // Same weights -> identical Q-values everywhere we probe.
  for (std::uint32_t probe = 0; probe < 5; ++probe)
    EXPECT_EQ(all_q_values(a, 5, {probe}), all_q_values(b, 5, {probe}));
}

TEST(DrCellAgent, CopyWeightsToMatchesSerialisation) {
  DrCellAgent a(4, fast_config());
  DrCellConfig cfg = fast_config();
  cfg.seed = 77;
  DrCellAgent b(4, cfg);
  a.copy_weights_to(b);
  EXPECT_EQ(all_q_values(a, 4, {}), all_q_values(b, 4, {}));
}

TEST(Trainer, EnvironmentFactoryChecksConsistency) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(5, 10));
  const auto config = fast_config();
  auto env = make_training_environment(task, testing::default_engine(), 0.5,
                                       config);
  EXPECT_EQ(env.options().history_cycles, config.history_cycles);
  EXPECT_EQ(env.num_cells(), 5u);
}

TEST(Trainer, TrainingRunsAndRecordsStats) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(5, 8));
  DrCellConfig config = fast_config();
  DrCellAgent agent(5, config);
  auto env = make_training_environment(task, testing::default_engine(), 0.5,
                                       config);
  const auto result = train_agent(agent, env, 3);
  EXPECT_EQ(result.episodes.size(), 3u);
  for (const auto& ep : result.episodes) {
    EXPECT_EQ(ep.cycles, 8u);
    EXPECT_GE(ep.total_selections, 8u * 2u);  // at least min_observations
  }
  EXPECT_GT(agent.trainer().env_steps(), 0u);
  EXPECT_GT(result.final_cells_per_cycle(), 0.0);
}

TEST(Trainer, MismatchedAgentEnvironmentThrows) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(5, 8));
  DrCellConfig config = fast_config();
  DrCellAgent agent(7, config);  // wrong cell count
  auto env = make_training_environment(task, testing::default_engine(), 0.5,
                                       config);
  EXPECT_THROW(train_agent(agent, env, 1), CheckError);
}

TEST(Trainer, LearningReducesSelectionsOnEasyTask) {
  // On the smooth toy task with a permissive epsilon, a trained policy
  // should not need more cells than an untrained one; the final episodes
  // should use no more selections than the first (exploration-heavy) one.
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(6, 10));
  DrCellConfig config = fast_config();
  config.dqn.epsilon = rl::EpsilonSchedule(0.8, 0.02, 150);
  DrCellAgent agent(6, config);
  auto env = make_training_environment(task, testing::default_engine(), 1.0,
                                       config);
  const auto result = train_agent(agent, env, 6);
  const double first = result.episodes.front().total_selections;
  const double last = result.episodes.back().total_selections;
  EXPECT_LE(last, first * 1.25);
}

TEST(Campaign, RunsRandomSelectorAndReportsMetrics) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(6, 10));
  baselines::RandomSelector selector(1);
  CampaignConfig config;
  config.epsilon = 1.0;
  config.p = 0.8;
  config.env.min_observations = 2;
  config.env.inference_window = 6;
  const auto result =
      run_campaign(task, testing::default_engine(), selector, config);
  EXPECT_EQ(result.selector, "RANDOM");
  EXPECT_EQ(result.cycles, 10u);
  EXPECT_GT(result.avg_cells_per_cycle, 0.0);
  EXPECT_LE(result.avg_cells_per_cycle, 6.0);
  EXPECT_GE(result.satisfaction_ratio, 0.0);
  EXPECT_LE(result.satisfaction_ratio, 1.0);
  EXPECT_EQ(result.total_selected,
            static_cast<std::size_t>(result.avg_cells_per_cycle * 10 + 0.5));
}

TEST(Campaign, QualityContractHoldsOnEasyTask) {
  // Warm-started GP task with an achievable epsilon: the LOO gate should
  // deliver a satisfaction ratio in the vicinity of the requested p. With
  // only 9 cells the LOO sample is tiny (3-6 errors per decision), so the
  // estimate is noisy and we assert a generous lower bound; tight
  // calibration is a large-m property exercised end-to-end by the Fig. 6
  // bench on the 57-cell dataset.
  const auto full = testing::make_gp_task(3, 48);
  auto task =
      std::make_shared<const mcs::SensingTask>(full.slice_cycles(12, 48));
  baselines::RandomSelector selector(2);
  CampaignConfig config;
  config.epsilon = 1.0;
  config.p = 0.85;
  config.env.min_observations = 4;
  config.env.inference_window = 12;
  config.env.warm_start = full.slice_cycles(0, 12).ground_truth();
  const auto result =
      run_campaign(task, testing::default_engine(), selector, config);
  EXPECT_GE(result.satisfaction_ratio, 0.55)
      << "true-error satisfaction collapsed: " << result.satisfaction_ratio;
  EXPECT_LE(result.mean_cycle_error, config.epsilon)
      << "mean error above the bound: " << result.mean_cycle_error;
}

TEST(Campaign, DrCellPolicyRunsEndToEnd) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(5, 12));
  DrCellConfig config = fast_config();
  DrCellAgent agent(5, config);
  auto train_env = make_training_environment(
      std::make_shared<const mcs::SensingTask>(task->slice_cycles(0, 6)),
      testing::default_engine(), 0.8, config);
  train_agent(agent, train_env, 3);

  DrCellPolicy policy(agent);
  CampaignConfig campaign;
  campaign.epsilon = 0.8;
  campaign.p = 0.8;
  campaign.env = config.env;
  campaign.env.history_cycles = config.history_cycles;
  const auto result =
      run_campaign(task, testing::default_engine(), policy, campaign);
  EXPECT_EQ(result.selector, "DR-Cell");
  EXPECT_EQ(result.cycles, 12u);
}

TEST(Campaign, OnlinePolicyLearnsDuringCampaign) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(5, 12));
  DrCellConfig config = fast_config();
  DrCellAgent agent(5, config);
  const std::size_t replay_before = agent.trainer().replay().size();
  OnlineAdaptivePolicy policy(agent, 0.1, 3);
  CampaignConfig campaign;
  campaign.epsilon = 0.8;
  campaign.p = 0.8;
  campaign.env = config.env;
  campaign.env.history_cycles = config.history_cycles;
  run_campaign(task, testing::default_engine(), policy, campaign);
  EXPECT_GT(agent.trainer().replay().size(), replay_before);
}

TEST(Transfer, TransferredAgentStartsFromSourceWeights) {
  const auto source_task = testing::make_toy_task(5, 10, 0.0, 1);
  const auto target_task = testing::make_toy_task(5, 10, 0.0, 2);
  DrCellConfig config = fast_config();
  DrCellAgent source(5, config);

  TransferOptions options;
  options.target_training_cycles = 5;
  options.fine_tune_episodes = 1;
  options.epsilon = 0.8;
  auto transferred =
      transfer_agent(source, target_task, testing::default_engine(), options);
  EXPECT_EQ(transferred.num_cells(), 5u);
  // Fine-tuned for one episode: weights exist and produce valid actions.
  const std::vector<std::uint32_t> no_ones;  // the all-zero state
  EXPECT_LT(transferred.greedy_action(no_ones, {1, 1, 1, 1, 1}), 5u);
}

TEST(Transfer, ShortTrainAgentRuns) {
  const auto target_task = testing::make_toy_task(5, 10);
  TransferOptions options;
  options.target_training_cycles = 5;
  options.fine_tune_episodes = 2;
  options.epsilon = 0.8;
  auto agent = short_train_agent(fast_config(), target_task,
                                 testing::default_engine(), options);
  EXPECT_GT(agent.trainer().env_steps(), 0u);
}

TEST(Transfer, CellCountMismatchThrows) {
  DrCellConfig config = fast_config();
  DrCellAgent source(4, config);
  const auto target_task = testing::make_toy_task(5, 10);
  TransferOptions options;
  options.epsilon = 0.5;
  EXPECT_THROW(transfer_agent(source, target_task, testing::default_engine(),
                              options),
               CheckError);
}

TEST(Transfer, RequestingTooManyCyclesThrows) {
  DrCellConfig config = fast_config();
  DrCellAgent source(5, config);
  const auto target_task = testing::make_toy_task(5, 4);
  TransferOptions options;
  options.target_training_cycles = 10;  // task only has 4
  options.epsilon = 0.5;
  EXPECT_THROW(transfer_agent(source, target_task, testing::default_engine(),
                              options),
               CheckError);
}

}  // namespace
}  // namespace drcell::core
