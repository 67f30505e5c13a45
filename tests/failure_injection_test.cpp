// Failure injection: degenerate shapes, corrupted streams, hostile inputs —
// plus the RUNTIME fault drills of the fault-tolerance layer (deterministic
// fault-injection registry, numeric-health sentinels, campaign quarantine,
// checkpoint-ring rollback). The library must fail loudly (CheckError /
// SerializationError), never silently corrupt state or crash; the serving
// fleet must contain faults to the faulted campaign and keep every healthy
// campaign bit-identical to a no-fault run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>

#include "baselines/random_selector.h"
#include "core/agent.h"
#include "core/campaign_scheduler.h"
#include "core/checkpoint.h"
#include "core/health_monitor.h"
#include "core/policy.h"
#include "cs/matrix_completion.h"
#include "data/datasets.h"
#include "data/task_io.h"
#include "mcs/environment.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "rl/dqn_trainer.h"
#include "rl/mlp_qnetwork.h"
#include "test_helpers.h"
#include "util/fault_injection.h"

namespace drcell {
namespace {

/// Every fault-injection test disarms on entry AND exit so a failing assert
/// cannot leak an armed spec into later tests.
struct DisarmGuard {
  DisarmGuard() { util::FaultInjection::disarm_all(); }
  ~DisarmGuard() { util::FaultInjection::disarm_all(); }
};

TEST(FailureInjection, EnvironmentRejectsNullDependencies) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task());
  auto engine = testing::default_engine();
  auto gate = std::make_shared<mcs::GroundTruthGate>(0.5);
  EXPECT_THROW(mcs::SparseMcsEnvironment(nullptr, engine, gate), CheckError);
  EXPECT_THROW(mcs::SparseMcsEnvironment(task, nullptr, gate), CheckError);
  EXPECT_THROW(mcs::SparseMcsEnvironment(task, engine, nullptr), CheckError);
}

TEST(FailureInjection, EnvironmentRejectsZeroWindow) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task());
  mcs::EnvOptions opt;
  opt.inference_window = 0;
  EXPECT_THROW(testing::make_toy_environment(task, 0.5, opt), CheckError);
}

TEST(FailureInjection, EnvironmentRejectsZeroMinObservations) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task());
  mcs::EnvOptions opt;
  opt.min_observations = 0;
  EXPECT_THROW(testing::make_toy_environment(task, 0.5, opt), CheckError);
}

TEST(FailureInjection, EnvironmentRejectsNegativeCellCost) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(6, 12));
  mcs::EnvOptions opt;
  opt.cell_costs.assign(6, 1.0);
  opt.cell_costs[3] = -2.0;
  EXPECT_THROW(testing::make_toy_environment(task, 0.5, opt), CheckError);
}

TEST(FailureInjection, SingleCycleTaskCompletesCleanly) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(4, 1));
  mcs::EnvOptions opt;
  opt.min_observations = 1;
  auto env = testing::make_toy_environment(task, 1e9, opt);
  const auto r = env.step(0);
  EXPECT_TRUE(r.cycle_complete);
  EXPECT_TRUE(r.episode_done);
}

TEST(FailureInjection, MinObservationsAboveCellCountStillTerminates) {
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(3, 2));
  mcs::EnvOptions opt;
  opt.min_observations = 10;  // more than the 3 cells
  auto env = testing::make_toy_environment(task, 1e9, opt);
  mcs::StepResult last;
  for (std::size_t cell = 0; cell < 3; ++cell) last = env.step(cell);
  EXPECT_TRUE(last.cycle_complete);  // full sensing forces completion
}

TEST(FailureInjection, CompletionWithRankAboveObservations) {
  cs::MatrixCompletionOptions opt;
  opt.rank = 10;
  const cs::MatrixCompletion mc(opt);
  cs::PartialMatrix p(5, 5);
  p.set(0, 0, 1.0);
  p.set(2, 3, 2.0);
  const Matrix est = mc.infer(p);  // rank silently clamped
  EXPECT_FALSE(est.has_non_finite());
}

TEST(FailureInjection, CompletionWithConstantData) {
  // Zero-variance observations: factors collapse but estimates stay finite
  // and equal the constant.
  const cs::MatrixCompletion mc;
  cs::PartialMatrix p(4, 6);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 6; j += 2) p.set(i, j, 7.0);
  const Matrix est = mc.infer(p);
  EXPECT_FALSE(est.has_non_finite());
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 6; ++j) EXPECT_NEAR(est(i, j), 7.0, 0.3);
}

TEST(FailureInjection, CompletionWithExtremeValues) {
  const cs::MatrixCompletion mc;
  cs::PartialMatrix p(4, 4);
  p.set(0, 0, 1e9);
  p.set(1, 1, -1e9);
  p.set(2, 2, 1e-9);
  const Matrix est = mc.infer(p);
  EXPECT_FALSE(est.has_non_finite());
}

TEST(FailureInjection, CorruptedWeightStreamVariants) {
  Rng rng(1);
  rl::MlpQNetwork net(3, 1, {4}, rng);

  // Flip bytes inside a valid stream at several offsets.
  std::stringstream good;
  nn::save_parameters(good, net.parameters());
  const std::string blob = good.str();
  for (std::size_t offset : {0ul, 4ul, 8ul, 12ul}) {
    std::string corrupted = blob;
    ASSERT_GT(corrupted.size(), offset);
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0xff);
    std::stringstream in(corrupted);
    // Header corruption throws; payload corruption loads garbage values but
    // must not crash. Either outcome is acceptable — assert no UB by just
    // executing it.
    try {
      nn::load_parameters(in, net.parameters());
    } catch (const nn::SerializationError&) {
      // expected for header/shape corruption
    }
  }
}

TEST(FailureInjection, WeightStreamWithAbsurdShapeRejected) {
  // Hand-craft a stream declaring a 10^18-element matrix.
  std::stringstream ss;
  ss.write("DRCW", 4);
  const std::uint32_t version = 1;
  ss.write(reinterpret_cast<const char*>(&version), 4);
  const std::uint64_t count = 1;
  ss.write(reinterpret_cast<const char*>(&count), 8);
  const std::uint64_t rows = 1'000'000'000ull, cols = 1'000'000'000ull;
  ss.write(reinterpret_cast<const char*>(&rows), 8);
  ss.write(reinterpret_cast<const char*>(&cols), 8);
  EXPECT_THROW(nn::load_matrices(ss), nn::SerializationError);
}

TEST(FailureInjection, TaskCsvWithRaggedRowsThrows) {
  const auto task = testing::make_toy_task(3, 4);
  std::stringstream ss;
  data::save_task_csv(ss, task);
  std::string text = ss.str();
  // Drop the last field of the final row (making it ragged).
  const auto last_comma = text.find_last_of(',');
  text = text.substr(0, last_comma) + "\n";
  std::stringstream corrupted(text);
  EXPECT_THROW(data::load_task_csv(corrupted), CheckError);
}

TEST(FailureInjection, TaskCsvTruncatedHeaderThrows) {
  std::stringstream ss("name,toy\ncycle_hours,1\n");
  EXPECT_THROW(data::load_task_csv(ss), CheckError);
}

TEST(FailureInjection, TaskCsvWithNanCoordinateThrows) {
  // A NaN coordinate would reach the KNN / QBC distances; it must be
  // rejected when the task is loaded.
  const auto task = testing::make_toy_task(3, 4);
  std::stringstream ss;
  data::save_task_csv(ss, task);
  std::string text = ss.str();
  const std::string clean_x = "coords_x,0,";
  const auto at = text.find(clean_x);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, clean_x.size(), "coords_x,nan,");
  std::stringstream corrupted(text);
  EXPECT_THROW(data::load_task_csv(corrupted), CheckError);
}

TEST(FailureInjection, SensingTaskRejectsInfiniteCycleHours) {
  const auto toy = testing::make_toy_task(3, 4);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(mcs::SensingTask("toy", toy.ground_truth(), toy.coords(),
                                mcs::ErrorMetric::mae(), inf),
               CheckError);
}

TEST(FailureInjection, ClassificationRejectsNanBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(mcs::ErrorMetric::classification({10.0, nan, 20.0}),
               CheckError);
  EXPECT_THROW(mcs::ErrorMetric::classification({nan}), CheckError);
}

TEST(FailureInjection, AgentConfigValidation) {
  core::DrCellConfig config;
  config.history_cycles = 0;
  EXPECT_THROW(core::DrCellAgent(5, config), CheckError);
  core::DrCellConfig bad_batch;
  bad_batch.dqn.batch_size = 0;
  EXPECT_THROW(core::DrCellAgent(5, bad_batch), CheckError);
  core::DrCellConfig bad_warmup;
  bad_warmup.dqn.min_replay = 4;
  bad_warmup.dqn.batch_size = 32;  // warm-up below batch size
  EXPECT_THROW(core::DrCellAgent(5, bad_warmup), CheckError);
}

TEST(FailureInjection, TrainerRejectsZeroCells) {
  core::DrCellConfig config;
  EXPECT_THROW(core::DrCellAgent(0, config), CheckError);
}

TEST(FailureInjection, GateOnNoisyTaskNeverSatisfiedStillTerminates) {
  // Epsilon = 0 on a noisy task: only full sensing closes cycles. The
  // episode must still terminate with every cycle fully sensed.
  auto task = std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(4, 3, /*noise=*/1.0));
  mcs::EnvOptions opt;
  opt.min_observations = 1;
  auto env = mcs::SparseMcsEnvironment(
      task, testing::default_engine(),
      std::make_shared<mcs::GroundTruthGate>(0.0), opt);
  std::size_t guard = 0;
  while (!env.episode_done()) {
    const auto mask = env.action_mask();
    for (std::size_t a = 0; a < mask.size(); ++a)
      if (mask[a]) {
        env.step(a);
        break;
      }
    ASSERT_LT(++guard, 100u) << "episode failed to terminate";
  }
  for (auto count : env.stats().cycle_selected) EXPECT_EQ(count, 4u);
}

// ---------------------------------------------------------------------------
// Fault-injection registry (util/fault_injection.h)

TEST(FaultInjectionRegistry, DisarmedIsNoOp) {
  DisarmGuard guard;
  EXPECT_FALSE(util::FaultInjection::enabled());
  EXPECT_FALSE(util::FaultInjection::check("env.step", "anything"));
  EXPECT_NO_THROW(util::FaultInjection::site("env.step", "anything"));
  EXPECT_EQ(util::FaultInjection::fires("env.step"), 0u);
}

TEST(FaultInjectionRegistry, SpecStringCountdownAndScope) {
  DisarmGuard guard;
  ASSERT_EQ(util::FaultInjection::arm_from_string("env.step@c1:after=1,times=2"),
            1u);
  // Wrong scope: never matches, never counts — the countdown below still
  // skips exactly one matching hit.
  EXPECT_FALSE(util::FaultInjection::check("env.step", "c2"));
  // Matching scope: hit 1 skipped (after=1), hits 2-3 fire (times=2), then
  // the spec is exhausted.
  EXPECT_FALSE(util::FaultInjection::check("env.step", "c1"));
  EXPECT_TRUE(util::FaultInjection::check("env.step", "c1"));
  EXPECT_TRUE(util::FaultInjection::check("env.step", "c1"));
  EXPECT_FALSE(util::FaultInjection::check("env.step", "c1"));
  EXPECT_EQ(util::FaultInjection::fires("env.step", "c1"), 2u);
}

TEST(FaultInjectionRegistry, BareSiteIsPersistent) {
  DisarmGuard guard;
  ASSERT_EQ(util::FaultInjection::arm_from_string("train.step"), 1u);
  for (int i = 0; i < 5; ++i)
    EXPECT_THROW(util::FaultInjection::site("train.step", ""),
                 util::InjectedFault);
  // An unscoped spec matches any scope.
  EXPECT_TRUE(util::FaultInjection::check("train.step", "whatever"));
}

TEST(FaultInjectionRegistry, MalformedSpecsThrow) {
  DisarmGuard guard;
  EXPECT_THROW(util::FaultInjection::arm_from_string("env.step:bogus=1"),
               CheckError);
  EXPECT_THROW(util::FaultInjection::arm_from_string("env.step:times=abc"),
               CheckError);
  EXPECT_THROW(util::FaultInjection::arm_from_string("env.step:prob=1.5"),
               CheckError);
  EXPECT_THROW(util::FaultInjection::arm_from_string(":after=1"), CheckError);
}

TEST(FaultInjectionRegistry, SignedOrOutOfRangeCountsThrow) {
  // after/times/seed are unsigned counts: a sign must not wrap into a huge
  // value (times=-1 would read as "forever", after=-1 as "never fires").
  DisarmGuard guard;
  for (const char* key : {"after", "times", "seed"}) {
    for (const char* value : {"-1", "+1", "-0", "18446744073709551616"}) {
      const std::string spec = std::string("env.step:") + key + "=" + value;
      EXPECT_THROW(util::FaultInjection::arm_from_string(spec), CheckError)
          << spec;
    }
    // The largest count still parses.
    EXPECT_EQ(util::FaultInjection::arm_from_string(
                  std::string("env.step:") + key + "=18446744073709551615"),
              1u);
  }
  util::FaultInjection::disarm_all();
  // A rejected spec arms nothing.
  EXPECT_THROW(util::FaultInjection::arm_from_string("env.step:times=-1"),
               CheckError);
  EXPECT_FALSE(util::FaultInjection::enabled());
}

TEST(FaultInjectionRegistry, ProbabilisticFiresAreDeterministic) {
  DisarmGuard guard;
  const auto pattern = [] {
    util::FaultInjection::disarm_all();
    util::FaultSpec spec;
    spec.site = "als.solve";
    spec.probability = 0.3;
    spec.seed = 99;
    util::FaultInjection::arm(spec);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i)
      fires.push_back(util::FaultInjection::check("als.solve"));
    return fires;
  };
  const auto first = pattern();
  const auto second = pattern();
  EXPECT_EQ(first, second);  // private RNG stream -> reproducible drills
  const auto fired = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 200);
}

// ---------------------------------------------------------------------------
// Numeric-health sentinels (core/health_monitor.h)

TEST(HealthMonitor, NonFiniteLossTripsStickyAndResets) {
  core::HealthMonitor monitor;
  EXPECT_TRUE(monitor.healthy());
  monitor.record_loss(0.5);
  EXPECT_TRUE(monitor.healthy());
  EXPECT_EQ(monitor.record_loss(std::numeric_limits<double>::quiet_NaN()),
            core::HealthStatus::kNonFiniteLoss);
  // Sticky: healthy losses afterwards do not clear it.
  monitor.record_loss(0.5);
  EXPECT_EQ(monitor.status(), core::HealthStatus::kNonFiniteLoss);
  EXPECT_FALSE(monitor.reason().empty());
  monitor.reset();
  EXPECT_TRUE(monitor.healthy());
  EXPECT_TRUE(monitor.reason().empty());
}

TEST(HealthMonitor, LossExplosionTripsAgainstBaseline) {
  // 64 baseline losses, then a 16-loss window against 1e3 x (|baseline| + 1).
  core::HealthMonitor monitor;
  for (int i = 0; i < 64; ++i) monitor.record_loss(1.0);  // baseline mean 1
  EXPECT_TRUE(monitor.healthy());
  for (int i = 0; i < 15; ++i) monitor.record_loss(3000.0);
  EXPECT_TRUE(monitor.healthy());  // the window is not full yet
  monitor.record_loss(3000.0);     // window mean 3000 > 1e3 * (1 + 1)
  EXPECT_EQ(monitor.status(), core::HealthStatus::kLossExplosion);

  core::HealthMonitor calm;
  for (int i = 0; i < 64; ++i) calm.record_loss(1.0);
  for (int i = 0; i < 32; ++i) calm.record_loss(1999.0);  // below 2000
  EXPECT_TRUE(calm.healthy());
}

TEST(HealthMonitor, QSentinels) {
  core::HealthMonitor nan_monitor;
  Matrix q(2, 3);
  q(1, 2) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(nan_monitor.check_q(q), core::HealthStatus::kNonFiniteQ);

  // The magnitude bound is |Q| > 1e12.
  core::HealthMonitor range_monitor;
  Matrix big(1, 2);
  big(0, 1) = -1e12;
  EXPECT_TRUE(range_monitor.healthy());
  EXPECT_EQ(range_monitor.check_q(big), core::HealthStatus::kHealthy);
  big(0, 1) = -1e13;
  EXPECT_EQ(range_monitor.check_q(big), core::HealthStatus::kQOutOfRange);
  EXPECT_EQ(range_monitor.reason(), "|Q| exceeded " + std::to_string(1e12));
}

TEST(HealthMonitor, NonFiniteQOutranksAnEarlierOutOfRangeValue) {
  // Both kinds in one batch, the out-of-range value first in scan order:
  // the non-finite sentinel still names the cause.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
    core::HealthMonitor monitor;
    Matrix q(2, 3);
    q(0, 0) = 1e13;
    q(1, 2) = bad;
    EXPECT_EQ(monitor.check_q(q), core::HealthStatus::kNonFiniteQ) << bad;
    EXPECT_EQ(monitor.reason(), "Q forward produced non-finite values");
  }
}

TEST(HealthMonitor, ParameterSentinelViaAgent) {
  core::DrCellConfig config;
  config.history_cycles = 2;
  config.lstm_hidden = 8;
  core::DrCellAgent agent(4, config);
  EXPECT_EQ(agent.check_parameter_health(), core::HealthStatus::kHealthy);
  agent.trainer().online().parameters()[0]->mutable_value()(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(agent.check_parameter_health(),
            core::HealthStatus::kNonFiniteParams);
}

core::DrCellConfig small_agent_config() {
  core::DrCellConfig config;
  config.history_cycles = 2;
  config.lstm_hidden = 8;
  return config;
}

std::vector<std::uint64_t> generations(rl::QNetwork& net) {
  std::vector<std::uint64_t> out;
  for (const nn::Parameter* p : net.parameters())
    out.push_back(p->generation());
  return out;
}

/// True when every tensor's generation moved past `before`.
bool all_bumped(rl::QNetwork& net, const std::vector<std::uint64_t>& before) {
  const std::vector<std::uint64_t> after = generations(net);
  for (std::size_t i = 0; i < after.size(); ++i)
    if (after[i] <= before[i]) return false;
  return after.size() == before.size();
}

TEST(HealthMonitor, ParameterScanSkipsTensorsUnwrittenSinceTheirCleanScan) {
  // A frozen agent's tensors are scanned once; a NaN written behind the
  // counter (const_cast, not mutable_value()) stays unseen until the next
  // write access to that tensor, or until reset() forgets the record.
  core::DrCellAgent agent(4, small_agent_config());
  nn::Parameter* wh = agent.trainer().online().parameters()[1];
  ASSERT_EQ(agent.check_parameter_health(), core::HealthStatus::kHealthy);
  const_cast<Matrix&>(wh->value())(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(agent.check_parameter_health(), core::HealthStatus::kHealthy);
  EXPECT_EQ(agent.check_parameter_health(), core::HealthStatus::kHealthy);
  (void)wh->mutable_value();
  EXPECT_EQ(agent.check_parameter_health(),
            core::HealthStatus::kNonFiniteParams);

  core::DrCellAgent forgotten(4, small_agent_config());
  nn::Parameter* b = forgotten.trainer().online().parameters()[2];
  ASSERT_EQ(forgotten.check_parameter_health(), core::HealthStatus::kHealthy);
  const_cast<Matrix&>(b->value())(0, 1) =
      std::numeric_limits<double>::infinity();
  EXPECT_EQ(forgotten.check_parameter_health(), core::HealthStatus::kHealthy);
  forgotten.health().reset();
  EXPECT_EQ(forgotten.check_parameter_health(),
            core::HealthStatus::kNonFiniteParams);
}

TEST(HealthMonitor, AdamStepMakesTheNextScanRescanEveryTensor) {
  // A trained agent is rescanned after every optimiser step: Adam::step
  // writes (and bumps) each tensor, so a NaN planted behind the counter is
  // found by the first scan after the step.
  core::DrCellAgent agent(4, small_agent_config());
  const auto params = agent.trainer().online().parameters();
  ASSERT_EQ(agent.check_parameter_health(), core::HealthStatus::kHealthy);
  const_cast<Matrix&>(params.back()->value())(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  ASSERT_EQ(agent.check_parameter_health(), core::HealthStatus::kHealthy);
  nn::Adam optimizer(params, 1e-3);
  optimizer.zero_grad();
  optimizer.step();
  EXPECT_EQ(agent.check_parameter_health(),
            core::HealthStatus::kNonFiniteParams);
}

TEST(HealthMonitor, AgentWeightWritersBumpEveryGeneration) {
  core::DrCellAgent source(4, small_agent_config());
  core::DrCellAgent agent(4, small_agent_config());
  rl::DqnTrainer& trainer = agent.trainer();

  auto before = generations(trainer.target());
  trainer.sync_target();
  EXPECT_TRUE(all_bumped(trainer.target(), before)) << "sync_target";

  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  source.save_weights(blob);
  before = generations(trainer.online());
  auto target_before = generations(trainer.target());
  agent.load_weights(blob);
  EXPECT_TRUE(all_bumped(trainer.online(), before)) << "load_weights";
  EXPECT_TRUE(all_bumped(trainer.target(), target_before))
      << "load_weights syncs the target";

  before = generations(trainer.online());
  target_before = generations(trainer.target());
  source.copy_weights_to(agent);
  EXPECT_TRUE(all_bumped(trainer.online(), before)) << "copy_weights_to";
  EXPECT_TRUE(all_bumped(trainer.target(), target_before))
      << "copy_weights_to syncs the target";
}

// ---------------------------------------------------------------------------
// Scheduler fault domains: quarantine, retry, rollback

/// Small deterministic fleet for the drills: two frozen DR-Cell campaigns
/// sharing one agent (slots 0-1) plus two RANDOM campaigns (slots 2-3).
/// Two separately constructed ToyFleets are bit-identical (fixed seeds).
struct ToyFleet {
  std::shared_ptr<const mcs::SensingTask> task;
  core::DrCellConfig config;
  core::CampaignConfig campaign;
  std::shared_ptr<core::DrCellAgent> agent;

  ToyFleet() {
    task = std::make_shared<const mcs::SensingTask>(
        testing::make_toy_task(6, 10));
    config.history_cycles = 2;
    config.lstm_hidden = 16;
    config.env.min_observations = 2;
    config.env.inference_window = 6;
    agent = std::make_shared<core::DrCellAgent>(6, config);
    campaign.epsilon = 0.8;
    campaign.p = 0.8;
    campaign.env = config.env;
    campaign.env.history_cycles = config.history_cycles;
  }

  void populate(core::CampaignScheduler& scheduler) const {
    for (int i = 0; i < 2; ++i)
      scheduler.add_campaign(
          "drcell-" + std::to_string(i), campaign, task,
          [] { return testing::default_engine(); },
          std::make_shared<core::DrCellPolicy>(*agent));
    for (int i = 0; i < 2; ++i)
      scheduler.add_campaign(
          "random-" + std::to_string(i), campaign, task,
          [] { return testing::default_engine(); },
          std::make_shared<baselines::RandomSelector>(
              static_cast<std::uint64_t>(40 + i)));
  }
};

void expect_campaign_identical(const core::CampaignScheduler& a,
                               const core::CampaignScheduler& b,
                               std::size_t slot) {
  const auto ra = a.results()[slot];
  const auto rb = b.results()[slot];
  EXPECT_EQ(ra.cycles, rb.cycles) << "slot " << slot;
  EXPECT_EQ(ra.stats.cycle_errors, rb.stats.cycle_errors) << "slot " << slot;
  EXPECT_EQ(ra.stats.total_reward, rb.stats.total_reward) << "slot " << slot;
  EXPECT_EQ(a.action_log(slot), b.action_log(slot)) << "slot " << slot;
}

bool has_incident(const core::CampaignScheduler& s, const std::string& kind) {
  return std::any_of(s.incidents().begin(), s.incidents().end(),
                     [&](const core::Incident& i) { return i.kind == kind; });
}

/// The wave of the first incident of `kind`, or SIZE_MAX when there is none.
std::size_t first_incident_wave(const core::CampaignScheduler& s,
                                const std::string& kind) {
  for (const core::Incident& i : s.incidents())
    if (i.kind == kind) return i.wave;
  return std::numeric_limits<std::size_t>::max();
}

TEST(SchedulerFaults, PersistentFaultQuarantinesOnlyTargetedCampaign) {
  DisarmGuard guard;
  const ToyFleet clean;
  core::CampaignScheduler reference;
  clean.populate(reference);
  reference.run();
  ASSERT_TRUE(reference.incidents().empty());

  util::FaultSpec spec;
  spec.site = "env.step";
  spec.scope = "random-0";  // slot 2
  util::FaultInjection::arm(spec);
  const ToyFleet fleet;
  core::CampaignScheduler faulted;
  fleet.populate(faulted);
  faulted.run();
  util::FaultInjection::disarm_all();

  ASSERT_TRUE(faulted.all_done());
  EXPECT_EQ(faulted.quarantined_slots(), (std::vector<std::size_t>{2}));
  EXPECT_TRUE(faulted.results()[2].quarantined);
  EXPECT_FALSE(faulted.results()[2].quarantine_reason.empty());
  EXPECT_TRUE(has_incident(faulted, "step-fault"));
  EXPECT_TRUE(has_incident(faulted, "quarantine"));
  // The healthy fleet never noticed: bit-identical to the no-fault run.
  for (const std::size_t slot : {0u, 1u, 3u})
    expect_campaign_identical(reference, faulted, slot);
}

TEST(SchedulerFaults, TransientStepFaultRetriedBitIdentically) {
  DisarmGuard guard;
  const ToyFleet clean;
  core::CampaignScheduler reference;
  clean.populate(reference);
  reference.run();

  util::FaultSpec spec;
  spec.site = "env.step";
  spec.scope = "random-1";
  spec.after = 3;  // let three steps through
  spec.times = 1;  // then fire exactly once
  util::FaultInjection::arm(spec);
  const ToyFleet fleet;
  core::CampaignScheduler faulted;
  fleet.populate(faulted);
  faulted.run();
  util::FaultInjection::disarm_all();

  // Recovered in-wave: no quarantine, and the WHOLE fleet — the faulted
  // campaign included — matches the no-fault run bit for bit.
  EXPECT_TRUE(faulted.quarantined_slots().empty());
  EXPECT_TRUE(has_incident(faulted, "retry-recovered"));
  for (std::size_t slot = 0; slot < 4; ++slot)
    expect_campaign_identical(reference, faulted, slot);
}

TEST(SchedulerFaults, NanPoisonedAgentRollsBackFromCheckpointRing) {
  DisarmGuard guard;
  core::CampaignScheduler::Options options;
  options.fault.checkpoint_every_waves = 4;
  options.fault.checkpoint_ring = 2;

  const ToyFleet clean;
  core::CampaignScheduler reference(options);
  clean.populate(reference);
  reference.run();
  ASSERT_EQ(reference.rollbacks(), 0u);

  const ToyFleet fleet;
  core::CampaignScheduler poisoned(options);
  fleet.populate(poisoned);
  poisoned.run(/*max_waves=*/10);
  fleet.agent->trainer().online().parameters()[0]->mutable_value()(1, 1) =
      std::numeric_limits<double>::quiet_NaN();
  const auto poisoned_generations =
      generations(fleet.agent->trainer().online());
  poisoned.run();

  // Detected by the parameter sentinel in the HEALTH phase of the first
  // wave after the poison, restored from the newest ring entry (wave 8; an
  // empty ring would have quarantined slots 0-1), and — the frozen policy
  // being deterministic and the selector streams restored — the re-run
  // lands exactly on the no-fault run.
  EXPECT_EQ(poisoned.rollbacks(), 1u);
  EXPECT_EQ(first_incident_wave(poisoned, "agent-unhealthy"), 10u);
  EXPECT_EQ(first_incident_wave(poisoned, "rollback"), 8u);
  // The rollback rewrote every online tensor through mutable_value().
  EXPECT_TRUE(all_bumped(fleet.agent->trainer().online(),
                         poisoned_generations));
  EXPECT_TRUE(poisoned.quarantined_slots().empty());
  EXPECT_TRUE(fleet.agent->health().healthy());  // reset after rollback
  for (std::size_t slot = 0; slot < 4; ++slot)
    expect_campaign_identical(reference, poisoned, slot);
}

TEST(SchedulerFaults, OnlineTrainStepDetectsNanWithinOneStep) {
  DisarmGuard guard;
  const ToyFleet fleet;
  core::DrCellConfig config = fleet.config;
  config.dqn.batch_size = 4;
  config.dqn.min_replay = 4;  // train from the 4th step on
  core::DrCellAgent agent(6, config);

  // This pins the DETECTION latency of the loss sentinel itself: it trips
  // in the poisoned wave's OBSERVE phase, and the scheduler acts on it only
  // in the next wave's HEALTH phase.
  core::CampaignScheduler scheduler;
  scheduler.add_campaign(
      "online-0", fleet.campaign, fleet.task,
      [] { return testing::default_engine(); },
      std::make_shared<core::OnlineAdaptivePolicy>(agent, 0.05, 7));
  scheduler.run(/*max_waves=*/8);  // replay warmed, training active
  ASSERT_EQ(scheduler.waves_completed(), 8u);
  ASSERT_GE(agent.trainer().replay().size(), 4u);
  ASSERT_GT(agent.trainer().train_steps(), 0u);
  ASSERT_TRUE(agent.health().healthy());

  // Poison the TARGET network. The action path (online net) stays clean —
  // poisoning it would NaN every Q-value and masked_argmax would reject the
  // decide with "no selectable action" before any train step ran. A NaN
  // target would fail the bootstrap argmax the same way, so the target's
  // output bias goes to +inf instead: every bootstrap value is then +inf,
  // and the very next train step records a non-finite Huber loss.
  nn::Parameter* output_bias = agent.trainer().target().parameters().back();
  for (double& b : output_bias->mutable_value().data())
    b = std::numeric_limits<double>::infinity();
  scheduler.step_wave();  // ONE wave = one train step
  EXPECT_EQ(agent.health().status(), core::HealthStatus::kNonFiniteLoss);
}

TEST(SchedulerFaults, TrainingAgentIsRescannedEveryWaveItTrains) {
  // The HEALTH phase skips only tensors unwritten since their last clean
  // scan. An agent that trains writes every online tensor once per train
  // step, so the next wave's HEALTH phase rescans all of them.
  DisarmGuard guard;
  const ToyFleet fleet;
  core::DrCellConfig config = fleet.config;
  config.dqn.batch_size = 4;
  config.dqn.min_replay = 4;
  core::DrCellAgent agent(6, config);
  core::CampaignScheduler scheduler;
  scheduler.add_campaign(
      "online-0", fleet.campaign, fleet.task,
      [] { return testing::default_engine(); },
      std::make_shared<core::OnlineAdaptivePolicy>(agent, 0.05, 7));
  scheduler.run(/*max_waves=*/8);
  ASSERT_GT(agent.trainer().train_steps(), 0u);
  for (int wave = 0; wave < 5; ++wave) {
    const auto before = generations(agent.trainer().online());
    const std::size_t steps_before = agent.trainer().train_steps();
    scheduler.step_wave();
    ASSERT_EQ(agent.trainer().train_steps(), steps_before + 1)
        << "wave " << wave;
    const auto after = generations(agent.trainer().online());
    for (std::size_t i = 0; i < after.size(); ++i)
      EXPECT_EQ(after[i], before[i] + 1) << "wave " << wave << " param " << i;
  }
  EXPECT_TRUE(agent.health().healthy());
}

TEST(SchedulerFaults, UnhealthyAgentWithoutRingQuarantinesItsCampaigns) {
  DisarmGuard guard;
  const ToyFleet clean;
  core::CampaignScheduler reference;
  clean.populate(reference);
  reference.run();

  // No checkpoint ring: rollback is impossible, so the recovery path
  // quarantines the poisoned agent's campaigns.
  const ToyFleet fleet;
  core::CampaignScheduler scheduler;
  fleet.populate(scheduler);
  scheduler.run(/*max_waves=*/3);
  fleet.agent->trainer().online().parameters()[0]->mutable_value()(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  scheduler.run();

  ASSERT_TRUE(scheduler.all_done());
  EXPECT_EQ(first_incident_wave(scheduler, "agent-unhealthy"), 3u);
  EXPECT_FALSE(has_incident(scheduler, "rollback"));
  EXPECT_EQ(scheduler.quarantined_slots(), (std::vector<std::size_t>{0, 1}));
  const auto results = scheduler.results();
  for (const std::size_t slot : {0u, 1u}) {
    EXPECT_TRUE(results[slot].quarantined) << "slot " << slot;
    EXPECT_EQ(results[slot].quarantine_reason.rfind("agent unhealthy: ", 0),
              0u)
        << results[slot].quarantine_reason;
  }
  // The RANDOM campaigns never noticed: bit-identical to the no-fault run.
  for (const std::size_t slot : {2u, 3u})
    expect_campaign_identical(reference, scheduler, slot);
}

TEST(SchedulerFaults, QuarantineStateSurvivesCheckpointRoundTrip) {
  DisarmGuard guard;
  util::FaultSpec spec;
  spec.site = "env.step";
  spec.scope = "random-0";
  util::FaultInjection::arm(spec);
  const ToyFleet fleet;
  core::CampaignScheduler faulted;
  fleet.populate(faulted);
  faulted.run();
  util::FaultInjection::disarm_all();
  ASSERT_EQ(faulted.quarantined_slots(), (std::vector<std::size_t>{2}));

  std::ostringstream out(std::ios::binary);
  core::save_checkpoint(faulted, out);
  const ToyFleet resumed_fleet;
  core::CampaignScheduler resumed;
  resumed_fleet.populate(resumed);
  std::istringstream in(out.str(), std::ios::binary);
  core::load_checkpoint(resumed, in);
  EXPECT_EQ(resumed.quarantined_slots(), (std::vector<std::size_t>{2}));
  EXPECT_EQ(resumed.results()[2].quarantine_reason,
            faulted.results()[2].quarantine_reason);
}

// ---------------------------------------------------------------------------
// Checkpoint integrity: corruption vs mismatch

TEST(CheckpointIntegrity, TruncationAndBitFlipAreCorruption) {
  const ToyFleet fleet;
  core::CampaignScheduler burst;
  fleet.populate(burst);
  burst.run(/*max_waves=*/6);
  std::ostringstream out(std::ios::binary);
  core::save_checkpoint(burst, out);
  const std::string bytes = out.str();

  const auto expect_corruption = [](const std::string& stream,
                                    const std::string& what) {
    SCOPED_TRACE(what);
    const ToyFleet fresh_fleet;
    core::CampaignScheduler fresh;
    fresh_fleet.populate(fresh);
    std::istringstream in(stream, std::ios::binary);
    EXPECT_THROW(core::load_checkpoint(fresh, in),
                 core::CheckpointCorruptionError);
  };
  const auto flip = [&bytes](std::size_t at) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    return flipped;
  };

  expect_corruption(bytes.substr(0, bytes.size() - 7), "truncated");
  expect_corruption(flip(bytes.size() / 2), "payload bit flip");
  // Envelope header: magic [0, 4), u32 version [4, 8), u64 payload size
  // [8, 16), u32 CRC [16, 20). Every bit flip there is damage too.
  for (std::size_t at = 0; at < 20; ++at)
    expect_corruption(flip(at), "header byte " + std::to_string(at));
  // A retired or unknown format version is not a fleet mismatch.
  std::string v1 = bytes;
  const std::uint32_t version1 = 1;
  std::memcpy(v1.data() + 4, &version1, sizeof(version1));
  expect_corruption(v1, "version 1");
}

TEST(CheckpointIntegrity, WrongFleetIsMismatchNotCorruption) {
  const ToyFleet fleet;
  core::CampaignScheduler burst;
  fleet.populate(burst);
  burst.run(/*max_waves=*/6);
  std::ostringstream out(std::ios::binary);
  core::save_checkpoint(burst, out);

  // Same bytes, CRC intact — but a fleet with different campaign ids.
  const ToyFleet other_fleet;
  core::CampaignScheduler other;
  other_fleet.populate(other);
  other.add_campaign("extra", other_fleet.campaign, other_fleet.task,
                     [] { return testing::default_engine(); },
                     std::make_shared<baselines::RandomSelector>(9));
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW(core::load_checkpoint(other, in),
               core::CheckpointMismatchError);
}

// ---------------------------------------------------------------------------
// ALS non-convergence -> cold-solve fallback

TEST(AlsFallback, ConvergeFaultFallsBackToColdSolveBitIdentically) {
  DisarmGuard guard;
  cs::MatrixCompletionOptions options;
  options.rank = 3;
  const cs::MatrixCompletion warm(options);

  // A smooth low-rank window, mostly observed; then two small increments —
  // exactly the per-cycle evolution the warm path trusts.
  const auto window = [](std::size_t extra) {
    cs::PartialMatrix p(8, 6);
    for (std::size_t r = 0; r < 8; ++r)
      for (std::size_t c = 0; c < 5; ++c)
        p.set(r, c, 10.0 + std::sin(0.7 * static_cast<double>(r)) +
                        0.5 * std::cos(0.9 * static_cast<double>(c)));
    for (std::size_t r = 0; r < extra; ++r)
      p.set(r, 5, 10.0 + std::sin(0.7 * static_cast<double>(r)) + 0.5);
    return p;
  };
  warm.infer(window(2));  // cold fit, caches factors
  warm.infer(window(4));  // trusted warm resume

  util::FaultSpec spec;
  spec.site = "als.converge";
  spec.times = 1;
  util::FaultInjection::arm(spec);
  const Matrix forced = warm.infer(window(6));
  // Exactly one fire proves the warm-resume path was taken and rejected.
  ASSERT_EQ(util::FaultInjection::fires("als.converge"), 1u);
  util::FaultInjection::disarm_all();
  // A fresh never-warmed engine on the same window is the reference: the
  // fallback re-solves from the same seeded noise with the full budget.
  const cs::MatrixCompletion cold(options);
  const Matrix reference = cold.infer(window(6));
  ASSERT_EQ(forced.rows(), reference.rows());
  ASSERT_EQ(forced.cols(), reference.cols());
  for (std::size_t r = 0; r < forced.rows(); ++r)
    for (std::size_t c = 0; c < forced.cols(); ++c)
      EXPECT_EQ(forced(r, c), reference(r, c)) << "(" << r << "," << c << ")";
}

TEST(AlsFallback, ConvergeFaultOnSlidResumeFallsBackToColdSolve) {
  DisarmGuard guard;
  const Matrix truth =
      data::make_city_scale_task(25, 40, 14, 1000).ground_truth();
  const auto slid = testing::make_serving_window(truth, 1, 64);
  const cs::MatrixCompletion warm;
  warm.infer(testing::make_serving_window(truth, 0, 64));  // cold fit

  util::FaultSpec spec;
  spec.site = "als.converge";
  spec.times = 1;
  util::FaultInjection::arm(spec);
  const Matrix forced = warm.infer(slid);
  // The site is only checked after a resume: one fire proves the window
  // slid into the shifted factors and the fallback then took over.
  ASSERT_EQ(util::FaultInjection::fires("als.converge"), 1u);
  util::FaultInjection::disarm_all();
  EXPECT_EQ(forced, cs::MatrixCompletion().infer(slid));
}

}  // namespace
}  // namespace drcell
