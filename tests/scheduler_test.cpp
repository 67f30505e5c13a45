// Multi-campaign serving engine: wave equivalence (batched vs solo),
// worker-count invariance, the checkpoint/resume contract and its error
// paths, and the process-wide shared spatial-factor registry.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/random_selector.h"
#include "core/campaign_scheduler.h"
#include "core/checkpoint.h"
#include "core/policy.h"
#include "data/synthetic_field.h"
#include "nn/serialize.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace drcell::core {
namespace {

DrCellConfig agent_config(std::uint64_t seed = 13) {
  DrCellConfig config;
  config.history_cycles = 2;
  config.lstm_hidden = 16;
  config.dqn.epsilon = rl::EpsilonSchedule(1.0, 0.1, 200);
  config.env.min_observations = 2;
  config.env.inference_window = 6;
  config.seed = seed;
  return config;
}

CampaignConfig campaign_config(const DrCellConfig& config) {
  CampaignConfig campaign;
  campaign.epsilon = 0.8;
  campaign.p = 0.8;
  campaign.env = config.env;
  campaign.env.history_cycles = config.history_cycles;
  return campaign;
}

CampaignScheduler::EngineFactory engine_factory() {
  return [] { return testing::default_engine(); };
}

/// Everything a campaign computed, seconds and id excluded (wall-clock is
/// never bit-compared; run_campaign leaves id empty).
void expect_same_result(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.total_selected, b.total_selected);
  EXPECT_EQ(a.avg_cells_per_cycle, b.avg_cells_per_cycle);
  EXPECT_EQ(a.satisfaction_ratio, b.satisfaction_ratio);
  EXPECT_EQ(a.mean_cycle_error, b.mean_cycle_error);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.stats.cycle_errors, b.stats.cycle_errors);
}

/// The standard test fleet: three frozen DR-Cell campaigns sharing one
/// agent plus two RANDOM campaigns, all over the same toy task.
void populate(CampaignScheduler& scheduler,
              const std::shared_ptr<const mcs::SensingTask>& task,
              const CampaignConfig& campaign, DrCellAgent& agent) {
  for (int i = 0; i < 3; ++i)
    scheduler.add_campaign("drcell-" + std::to_string(i), campaign, task,
                           engine_factory(),
                           std::make_shared<DrCellPolicy>(agent));
  for (int i = 0; i < 2; ++i)
    scheduler.add_campaign("random-" + std::to_string(i), campaign, task,
                           engine_factory(),
                           std::make_shared<baselines::RandomSelector>(
                               static_cast<std::uint64_t>(40 + i)));
}

/// Wraps a DrCellPolicy instead of being one. The scheduler batches by
/// type, so it must step this selector through select(); `selects` counts
/// the calls.
class WrappedDrCellPolicy final : public baselines::CellSelector {
 public:
  WrappedDrCellPolicy(DrCellAgent& agent, std::size_t& selects)
      : policy_(agent), selects_(selects) {}
  std::size_t select(const mcs::SparseMcsEnvironment& env) override {
    ++selects_;
    return policy_.select(env);
  }
  std::string name() const override { return policy_.name(); }

 private:
  DrCellPolicy policy_;
  std::size_t& selects_;
};

TEST(CampaignScheduler, BatchedWaveBitIdenticalToSolo) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(6, 10));
  const DrCellConfig config = agent_config();
  DrCellAgent agent(6, config);
  const CampaignConfig campaign = campaign_config(config);

  CampaignScheduler batched;
  populate(batched, task, campaign, agent);
  batched.run();
  ASSERT_TRUE(batched.all_done());

  // The same fleet with each DR-Cell policy wrapped: every decision goes
  // through select(), one B = 1 forward per campaign, and lands on the
  // batched fleet's results.
  std::size_t selects = 0;
  CampaignScheduler wrapped;
  for (int i = 0; i < 3; ++i)
    wrapped.add_campaign("drcell-" + std::to_string(i), campaign, task,
                         engine_factory(),
                         std::make_shared<WrappedDrCellPolicy>(agent, selects));
  for (int i = 0; i < 2; ++i)
    wrapped.add_campaign("random-" + std::to_string(i), campaign, task,
                         engine_factory(),
                         std::make_shared<baselines::RandomSelector>(
                             static_cast<std::uint64_t>(40 + i)));
  wrapped.run();
  ASSERT_TRUE(wrapped.all_done());
  std::size_t drcell_steps = 0;
  for (std::size_t i = 0; i < 3; ++i)
    drcell_steps += wrapped.action_log(i).size();
  EXPECT_GT(selects, 0u);
  EXPECT_EQ(selects, drcell_steps);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(wrapped.action_log(i), batched.action_log(i)) << "slot " << i;
    expect_same_result(wrapped.results()[i], batched.results()[i]);
  }

  // Reference: each campaign alone through run_campaign.
  for (int i = 0; i < 3; ++i) {
    DrCellPolicy solo(agent);
    expect_same_result(
        batched.results()[static_cast<std::size_t>(i)],
        run_campaign(task, testing::default_engine(), solo, campaign));
  }
  for (int i = 0; i < 2; ++i) {
    baselines::RandomSelector solo(static_cast<std::uint64_t>(40 + i));
    expect_same_result(
        batched.results()[static_cast<std::size_t>(3 + i)],
        run_campaign(task, testing::default_engine(), solo, campaign));
  }
}

TEST(CampaignScheduler, WorkerCountInvariance) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(6, 8));
  const DrCellConfig config = agent_config();
  const CampaignConfig campaign = campaign_config(config);

  std::vector<std::vector<CampaignResult>> per_pool;
  std::vector<std::vector<std::uint32_t>> first_logs;
  for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
    util::ThreadPool pool(workers);
    CampaignScheduler::Options options;
    options.pool = &pool;
    CampaignScheduler scheduler(options);
    DrCellAgent agent(6, agent_config());
    populate(scheduler, task, campaign, agent);
    scheduler.run();
    per_pool.push_back(scheduler.results());
    if (first_logs.empty())
      for (std::size_t i = 0; i < scheduler.num_campaigns(); ++i)
        first_logs.push_back(scheduler.action_log(i));
    else
      for (std::size_t i = 0; i < scheduler.num_campaigns(); ++i)
        EXPECT_EQ(scheduler.action_log(i), first_logs[i]);
  }
  ASSERT_EQ(per_pool.size(), 2u);
  for (std::size_t i = 0; i < per_pool[0].size(); ++i)
    expect_same_result(per_pool[0][i], per_pool[1][i]);
}

TEST(CampaignScheduler, RejectsEmptyAndDuplicateIds) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(5, 6));
  const CampaignConfig campaign = campaign_config(agent_config());
  CampaignScheduler scheduler;
  EXPECT_THROW(scheduler.add_campaign(
                   "", campaign, task, engine_factory(),
                   std::make_shared<baselines::RandomSelector>(1)),
               CheckError);
  scheduler.add_campaign("a", campaign, task, engine_factory(),
                         std::make_shared<baselines::RandomSelector>(1));
  EXPECT_THROW(scheduler.add_campaign(
                   "a", campaign, task, engine_factory(),
                   std::make_shared<baselines::RandomSelector>(2)),
               CheckError);
}

TEST(Checkpoint, ResumeBitIdenticalToUninterrupted) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(6, 10));
  const DrCellConfig config = agent_config();
  const CampaignConfig campaign = campaign_config(config);

  DrCellAgent uninterrupted_agent(6, config);
  CampaignScheduler uninterrupted;
  populate(uninterrupted, task, campaign, uninterrupted_agent);
  uninterrupted.run();

  DrCellAgent burst_agent(6, config);
  CampaignScheduler burst;
  populate(burst, task, campaign, burst_agent);
  burst.run(/*max_waves=*/7);
  ASSERT_FALSE(burst.all_done());
  std::ostringstream out(std::ios::binary);
  save_checkpoint(burst, out);

  // The resumed registry's agent starts from a DIFFERENT seed — if the
  // resumed fleet still matches, the checkpoint restored the weights.
  DrCellAgent resumed_agent(6, agent_config(/*seed=*/999));
  CampaignScheduler resumed;
  populate(resumed, task, campaign, resumed_agent);
  std::istringstream in(out.str(), std::ios::binary);
  load_checkpoint(resumed, in);
  EXPECT_EQ(resumed.waves_completed(), burst.waves_completed());
  resumed.run();

  for (std::size_t i = 0; i < uninterrupted.num_campaigns(); ++i) {
    expect_same_result(uninterrupted.results()[i], resumed.results()[i]);
    EXPECT_EQ(uninterrupted.action_log(i), resumed.action_log(i));
  }
  EXPECT_EQ(resumed.waves_completed(), uninterrupted.waves_completed());
}

TEST(Checkpoint, TruncatedStreamThrows) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(5, 6));
  const CampaignConfig campaign = campaign_config(agent_config());
  CampaignScheduler scheduler;
  scheduler.add_campaign("a", campaign, task, engine_factory(),
                         std::make_shared<baselines::RandomSelector>(7));
  scheduler.run(/*max_waves=*/4);
  std::ostringstream out(std::ios::binary);
  save_checkpoint(scheduler, out);
  std::string data = out.str();
  data.resize(data.size() / 2);

  CampaignScheduler other;
  other.add_campaign("a", campaign, task, engine_factory(),
                     std::make_shared<baselines::RandomSelector>(7));
  std::istringstream in(data, std::ios::binary);
  EXPECT_THROW(load_checkpoint(other, in), nn::SerializationError);
}

TEST(Checkpoint, BadMagicThrows) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(5, 6));
  const CampaignConfig campaign = campaign_config(agent_config());
  CampaignScheduler scheduler;
  scheduler.add_campaign("a", campaign, task, engine_factory(),
                         std::make_shared<baselines::RandomSelector>(7));
  std::istringstream in("this is not a checkpoint stream",
                        std::ios::binary);
  EXPECT_THROW(load_checkpoint(scheduler, in), nn::SerializationError);
}

TEST(Checkpoint, CampaignCountMismatchThrows) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(5, 6));
  const CampaignConfig campaign = campaign_config(agent_config());
  CampaignScheduler two;
  two.add_campaign("a", campaign, task, engine_factory(),
                   std::make_shared<baselines::RandomSelector>(1));
  two.add_campaign("b", campaign, task, engine_factory(),
                   std::make_shared<baselines::RandomSelector>(2));
  two.run(/*max_waves=*/2);
  std::ostringstream out(std::ios::binary);
  save_checkpoint(two, out);

  CampaignScheduler one;
  one.add_campaign("a", campaign, task, engine_factory(),
                   std::make_shared<baselines::RandomSelector>(1));
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW(load_checkpoint(one, in), nn::SerializationError);
}

TEST(Checkpoint, CampaignIdMismatchThrows) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(5, 6));
  const CampaignConfig campaign = campaign_config(agent_config());
  CampaignScheduler saved;
  saved.add_campaign("a", campaign, task, engine_factory(),
                     std::make_shared<baselines::RandomSelector>(1));
  saved.run(/*max_waves=*/2);
  std::ostringstream out(std::ios::binary);
  save_checkpoint(saved, out);

  CampaignScheduler renamed;
  renamed.add_campaign("not-a", campaign, task, engine_factory(),
                       std::make_shared<baselines::RandomSelector>(1));
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW(load_checkpoint(renamed, in), nn::SerializationError);
}

TEST(Checkpoint, AgentWiringMismatchThrows) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(6, 6));
  const DrCellConfig config = agent_config();
  const CampaignConfig campaign = campaign_config(config);
  DrCellAgent agent(6, config);
  CampaignScheduler saved;
  saved.add_campaign("a", campaign, task, engine_factory(),
                     std::make_shared<DrCellPolicy>(agent));
  saved.run(/*max_waves=*/2);
  std::ostringstream out(std::ios::binary);
  save_checkpoint(saved, out);

  // Same id, but the selector carries no agent: the registry's agent table
  // (0 agents) cannot line up with the checkpoint's (1 agent).
  CampaignScheduler weightless;
  weightless.add_campaign("a", campaign, task, engine_factory(),
                          std::make_shared<baselines::RandomSelector>(1));
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW(load_checkpoint(weightless, in), nn::SerializationError);
}

/// Two RANDOM campaigns on `task` with the given ids and selector seeds.
void populate_random_pair(CampaignScheduler& scheduler,
                          const std::shared_ptr<const mcs::SensingTask>& task,
                          const CampaignConfig& campaign,
                          const std::string& second_id,
                          std::uint64_t seed_base) {
  scheduler.add_campaign("r0", campaign, task, engine_factory(),
                         std::make_shared<baselines::RandomSelector>(seed_base));
  scheduler.add_campaign(
      second_id, campaign, task, engine_factory(),
      std::make_shared<baselines::RandomSelector>(seed_base + 1));
}

/// Loads `checkpoint` into a two-RANDOM fleet stopped after 8 waves, expects
/// the load to fail, then checks that the fleet finishes exactly like an
/// untouched twin: a failed load must not have mutated anything.
void expect_failed_load_leaves_fleet_unchanged(
    const std::shared_ptr<const mcs::SensingTask>& task,
    const CampaignConfig& campaign, const std::string& checkpoint) {
  CampaignScheduler loaded;
  populate_random_pair(loaded, task, campaign, "r1", 31);
  loaded.run(/*max_waves=*/8);
  CampaignScheduler twin;
  populate_random_pair(twin, task, campaign, "r1", 31);
  twin.run(/*max_waves=*/8);
  ASSERT_FALSE(loaded.all_done());

  std::istringstream in(checkpoint, std::ios::binary);
  EXPECT_THROW(load_checkpoint(loaded, in), CheckpointMismatchError);
  EXPECT_EQ(loaded.waves_completed(), twin.waves_completed());
  loaded.run();
  twin.run();
  for (std::size_t i = 0; i < twin.num_campaigns(); ++i) {
    expect_same_result(loaded.results()[i], twin.results()[i]);
    EXPECT_EQ(loaded.action_log(i), twin.action_log(i)) << "campaign " << i;
  }
}

TEST(Checkpoint, FailedIdCheckLeavesSchedulerUnchanged) {
  // The second id differs, so the load fails after the first campaign's
  // record was read: its selector stream must not have been restored.
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(5, 8));
  const CampaignConfig campaign = campaign_config(agent_config());
  CampaignScheduler other;
  populate_random_pair(other, task, campaign, "not-r1", 90);
  other.run(/*max_waves=*/3);
  std::ostringstream out(std::ios::binary);
  save_checkpoint(other, out);
  expect_failed_load_leaves_fleet_unchanged(task, campaign, out.str());
}

TEST(Checkpoint, FailedReplayLeavesSchedulerUnchanged) {
  // Same ids, but the log was recorded on a 7-cell task: replaying it on
  // the 5-cell fleet fails, after every record parsed cleanly. Neither
  // the environments nor the selector streams may have been replaced.
  const CampaignConfig campaign = campaign_config(agent_config());
  CampaignScheduler other;
  populate_random_pair(other,
                       std::make_shared<const mcs::SensingTask>(
                           testing::make_toy_task(7, 8)),
                       campaign, "r1", 90);
  other.run(/*max_waves=*/10);
  std::ostringstream out(std::ios::binary);
  save_checkpoint(other, out);
  expect_failed_load_leaves_fleet_unchanged(
      std::make_shared<const mcs::SensingTask>(testing::make_toy_task(5, 8)),
      campaign, out.str());
}

std::vector<Matrix> parameter_values(rl::QNetwork& net) {
  std::vector<Matrix> values;
  for (const nn::Parameter* p : net.parameters()) values.push_back(p->value());
  return values;
}

TEST(Checkpoint, FailedWeightLoadRestoresEarlierAgents) {
  // Two agents; the checkpoint's second one has a narrower LSTM, so its
  // weight blob fails the shape check after the first agent was loaded.
  // The first agent's online and target weights and counters must be
  // restored.
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(6, 6));
  const CampaignConfig campaign = campaign_config(agent_config());
  DrCellConfig narrow = agent_config(/*seed=*/5);
  narrow.lstm_hidden = 12;
  DrCellAgent saved_a(6, agent_config(/*seed=*/4));
  DrCellAgent saved_b(6, narrow);
  CampaignScheduler saved;
  saved.add_campaign("a", campaign, task, engine_factory(),
                     std::make_shared<DrCellPolicy>(saved_a));
  saved.add_campaign("b", campaign, task, engine_factory(),
                     std::make_shared<DrCellPolicy>(saved_b));
  saved.run(/*max_waves=*/2);
  saved_a.trainer().restore_counters(17, 9);
  std::ostringstream out(std::ios::binary);
  save_checkpoint(saved, out);

  DrCellAgent agent_a(6, agent_config(/*seed=*/6));
  DrCellAgent agent_b(6, agent_config(/*seed=*/7));
  CampaignScheduler loaded;
  loaded.add_campaign("a", campaign, task, engine_factory(),
                      std::make_shared<DrCellPolicy>(agent_a));
  loaded.add_campaign("b", campaign, task, engine_factory(),
                      std::make_shared<DrCellPolicy>(agent_b));
  // Desynchronise the target so a restore through sync_target would show.
  agent_a.trainer().target().parameters()[0]->mutable_value()(0, 0) += 1.0;
  const auto online_before = parameter_values(agent_a.trainer().online());
  const auto target_before = parameter_values(agent_a.trainer().target());
  const std::size_t env_steps = agent_a.trainer().env_steps();
  const std::size_t train_steps = agent_a.trainer().train_steps();

  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW(load_checkpoint(loaded, in), nn::SerializationError);
  EXPECT_EQ(parameter_values(agent_a.trainer().online()), online_before);
  EXPECT_EQ(parameter_values(agent_a.trainer().target()), target_before);
  EXPECT_EQ(agent_a.trainer().env_steps(), env_steps);
  EXPECT_EQ(agent_a.trainer().train_steps(), train_steps);
  EXPECT_EQ(loaded.waves_completed(), 0u);
}

data::FieldParams shared_cache_params() {
  data::FieldParams params;
  params.mean = 10.0;
  params.stddev = 2.0;
  params.spatial_length = 15.0;
  params.temporal_ar1 = 0.9;
  params.num_modes = 2;
  return params;
}

TEST(SharedFactorCache, CrossGeneratorHitsAndCollisionSafety) {
  using data::SyntheticFieldGenerator;
  SyntheticFieldGenerator::reset_shared_factor_cache();
  const auto coords = data::grid_coords(4, 4, 10.0, 10.0);
  const data::FieldParams params = shared_cache_params();

  SyntheticFieldGenerator first(coords);
  Rng rng_a(1);
  first.generate(params, 6, rng_a);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(), 0u);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 1u);

  // A distinct generator over the SAME coordinates reuses the factor.
  SyntheticFieldGenerator second(coords);
  Rng rng_b(2);
  second.generate(params, 6, rng_b);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(), 1u);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 1u);

  // Same spatial params over DIFFERENT coordinates must build its own
  // factor — element-wise key equality, a hash collision can never alias.
  SyntheticFieldGenerator elsewhere(data::grid_coords(4, 4, 9.0, 10.0));
  Rng rng_c(3);
  elsewhere.generate(params, 6, rng_c);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(), 1u);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 2u);

  // Regenerating on `first` is served by the registry too.
  Rng rng_d(4);
  first.generate(params, 6, rng_d);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(), 2u);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 2u);

  SyntheticFieldGenerator::reset_shared_factor_cache();
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(), 0u);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 0u);
}

TEST(SharedFactorCache, ConcurrentSameConfigBuildsPaidOnce) {
  using data::SyntheticFieldGenerator;
  SyntheticFieldGenerator::reset_shared_factor_cache();
  const auto coords = data::grid_coords(5, 5, 10.0, 10.0);
  const data::FieldParams params = shared_cache_params();

  constexpr std::size_t kGenerators = 8;
  std::vector<std::unique_ptr<SyntheticFieldGenerator>> generators;
  for (std::size_t i = 0; i < kGenerators; ++i)
    generators.push_back(std::make_unique<SyntheticFieldGenerator>(coords));

  util::ThreadPool pool(3);
  pool.parallel_for(kGenerators, [&](std::size_t i) {
    Rng rng(100 + i);
    generators[i]->generate(params, 6, rng);
  });
  // One build, every other generator served by the registry — whether it
  // arrived after the build or waited on the registry lock during it.
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(),
            kGenerators - 1);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 1u);
  SyntheticFieldGenerator::reset_shared_factor_cache();
}

}  // namespace
}  // namespace drcell::core
