// Multi-campaign serving: one CampaignScheduler stepping a fleet of
// concurrent sensing campaigns — four frozen DR-Cell deployments sharing
// ONE trained agent (their Q-forwards are batched into a single
// forward_batch per wave) next to four RANDOM campaigns — then a
// stop/resume drill: checkpoint mid-flight, rebuild a fresh scheduler,
// resume, and verify the resumed fleet finishes bit-identical to the
// uninterrupted one.
//
// With --chaos the run becomes a fault-tolerance demo instead: deterministic
// faults are injected into the serving fleet (a persistent environment fault
// on one campaign, a transient one on another, and a NaN-poisoned shared
// agent mid-flight) and the scheduler's recovery — in-wave retry, campaign
// quarantine, checkpoint-ring rollback — is narrated through the incident
// log.
//
// Build & run:  ./build/example_multi_campaign [--json [path]] [--chaos]
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

#include "baselines/random_selector.h"
#include "core/campaign_json.h"
#include "core/campaign_scheduler.h"
#include "core/checkpoint.h"
#include "core/policy.h"
#include "core/trainer.h"
#include "cs/matrix_completion.h"
#include "data/datasets.h"
#include "util/fault_injection.h"
#include "util/table.h"

using namespace drcell;

namespace {

core::CampaignConfig campaign_config(const core::DrCellConfig& config) {
  core::CampaignConfig campaign;
  campaign.epsilon = 0.3;
  campaign.p = 0.9;
  campaign.env = config.env;
  campaign.env.history_cycles = config.history_cycles;
  return campaign;
}

void populate(core::CampaignScheduler& scheduler,
              const std::shared_ptr<const mcs::SensingTask>& test_task,
              const core::CampaignConfig& campaign, core::DrCellAgent& agent) {
  const auto engine_factory = [] {
    return std::make_shared<cs::MatrixCompletion>();
  };
  for (int i = 0; i < 4; ++i) {
    char id[32];
    std::snprintf(id, sizeof(id), "drcell-%d", i);
    scheduler.add_campaign(id, campaign, test_task, engine_factory,
                           std::make_shared<core::DrCellPolicy>(agent));
  }
  for (int i = 0; i < 4; ++i) {
    char id[32];
    std::snprintf(id, sizeof(id), "random-%d", i);
    scheduler.add_campaign(
        id, campaign, test_task, engine_factory,
        std::make_shared<baselines::RandomSelector>(100 + i));
  }
}

bool same_result(const core::CampaignResult& a, const core::CampaignResult& b) {
  return a.id == b.id && a.cycles == b.cycles &&
         a.total_selected == b.total_selected &&
         a.mean_cycle_error == b.mean_cycle_error &&
         a.total_cost == b.total_cost &&
         a.stats.cycle_errors == b.stats.cycle_errors;
}

/// The --chaos drill: inject a persistent fault, a transient fault and a
/// mid-flight NaN poisoning into a serving fleet and narrate the recovery.
int run_chaos(const std::shared_ptr<const mcs::SensingTask>& test_task,
              const core::CampaignConfig& campaign, core::DrCellAgent& agent) {
  std::cout << "--- chaos mode ---------------------------------------------\n"
               "arming deterministic faults:\n"
               "  env.step@random-2                 every step  (persistent)\n"
               "  env.step@random-0  after=10,times=1  one transient fault\n";
  util::FaultInjection::disarm_all();
  util::FaultInjection::arm_from_string(
      "env.step@random-2;env.step@random-0:after=10,times=1");

  core::CampaignScheduler::Options options;
  options.fault.checkpoint_every_waves = 16;  // auto-snapshot ring
  options.fault.checkpoint_ring = 3;
  core::CampaignScheduler fleet(options);
  populate(fleet, test_task, campaign, agent);

  fleet.run(/*max_waves=*/30);
  std::cout << "\npoisoning the shared agent's weights with NaN at wave "
            << fleet.waves_completed() << "...\n";
  agent.trainer().online().parameters()[0]->mutable_value()(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  fleet.run();
  util::FaultInjection::disarm_all();

  std::cout << "\nincident log:\n";
  for (const auto& incident : fleet.incidents())
    std::cout << "  wave " << incident.wave << "  ["
              << (incident.campaign.empty() ? "<fleet>" : incident.campaign)
              << "]  " << incident.kind << ": " << incident.detail << "\n";

  std::cout << "\n";
  TablePrinter table({"campaign", "state", "cells/cycle", "MAE (degC)"});
  for (const auto& r : fleet.results())
    table.add_row({r.id + " (" + r.selector + ")",
                   r.quarantined ? "QUARANTINED" : "serving",
                   format_double(r.avg_cells_per_cycle, 2),
                   format_double(r.mean_cycle_error, 2)});
  table.print(std::cout);

  const auto quarantined = fleet.quarantined_slots();
  const bool as_expected = quarantined.size() == 1 &&
                           fleet.results()[quarantined[0]].id == "random-2" &&
                           fleet.rollbacks() == 1;
  std::cout << "\n" << fleet.rollbacks() << " rollback(s), "
            << quarantined.size() << " campaign(s) quarantined; the other "
            << fleet.num_campaigns() - quarantined.size()
            << " finished untouched: "
            << (as_expected ? "recovery as expected" : "UNEXPECTED OUTCOME")
            << "\n";
  return as_expected ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool chaos = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
  const std::string json =
      chaos ? std::string()
            : core::campaign_json_path(argc, argv, "CAMPAIGN_multi.json");

  std::cout << "generating Sensor-Scope-like campus data (57 cells)...\n";
  const auto dataset = data::make_sensorscope_like(/*seed=*/2018);
  auto full = std::make_shared<const mcs::SensingTask>(
      dataset.temperature.slice_cycles(0, 96));
  auto training_task =
      std::make_shared<const mcs::SensingTask>(full->slice_cycles(0, 48));
  auto test_task =
      std::make_shared<const mcs::SensingTask>(full->slice_cycles(48, 96));

  core::DrCellConfig config;
  config.lstm_hidden = 32;
  config.dqn.epsilon = rl::EpsilonSchedule(1.0, 0.05, 2000);
  config.env.min_observations = 3;
  config.env.inference_window = 10;

  core::DrCellAgent agent(full->num_cells(), config);
  auto train_env = core::make_training_environment(
      training_task, std::make_shared<cs::MatrixCompletion>(), 0.3, config);
  std::cout << "training DR-Cell (3 episodes)...\n";
  const auto training = core::train_agent(agent, train_env, 3);
  std::cout << "  done in " << format_double(training.seconds, 1) << " s\n\n";

  const core::CampaignConfig campaign = campaign_config(config);

  if (chaos) return run_chaos(test_task, campaign, agent);

  // Fleet A runs uninterrupted.
  core::CampaignScheduler uninterrupted;
  populate(uninterrupted, test_task, campaign, agent);
  std::cout << "running 8 campaigns to completion (4 batched DR-Cell + 4 "
               "RANDOM)...\n";
  const std::size_t waves = uninterrupted.run();
  std::cout << "  " << waves << " waves\n";

  // Fleet B stops after 40 waves, checkpoints, and resumes in a fresh
  // scheduler built from the same registry.
  core::CampaignScheduler burst;
  populate(burst, test_task, campaign, agent);
  burst.run(/*max_waves=*/40);
  std::ostringstream checkpoint(std::ios::binary);
  core::save_checkpoint(burst, checkpoint);
  std::cout << "checkpointed after 40 waves (" << checkpoint.str().size()
            << " bytes); resuming in a fresh scheduler...\n";

  core::CampaignScheduler resumed;
  populate(resumed, test_task, campaign, agent);
  std::istringstream in(checkpoint.str(), std::ios::binary);
  core::load_checkpoint(resumed, in);
  resumed.run();

  const auto results = uninterrupted.results();
  const auto resumed_results = resumed.results();
  bool identical = results.size() == resumed_results.size();
  for (std::size_t i = 0; identical && i < results.size(); ++i)
    identical = same_result(results[i], resumed_results[i]) &&
                uninterrupted.action_log(i) == resumed.action_log(i);
  std::cout << "resumed fleet vs uninterrupted: "
            << (identical ? "bit-identical" : "MISMATCH") << "\n\n";

  TablePrinter table(
      {"campaign", "cells/cycle", "satisfaction", "MAE (degC)"});
  for (const auto& r : results)
    table.add_row(r.id + " (" + r.selector + ")",
                  {r.avg_cells_per_cycle, r.satisfaction_ratio,
                   r.mean_cycle_error});
  table.print(std::cout);
  std::cout << "\n(the four DR-Cell campaigns share one agent: each wave "
               "scores all four states with a single batched forward)\n";

  if (!json.empty() &&
      !core::write_campaign_json_file(json, "multi_campaign", results))
    return 1;
  return identical ? 0 : 1;
}
