#include "core/trainer.h"

#include "util/stopwatch.h"

namespace drcell::core {

mcs::SparseMcsEnvironment make_training_environment(
    std::shared_ptr<const mcs::SensingTask> training_task,
    cs::InferenceEnginePtr engine, double epsilon,
    const DrCellConfig& config) {
  DRCELL_CHECK(training_task != nullptr);
  mcs::EnvOptions env_options = config.env;
  env_options.history_cycles = config.history_cycles;
  auto gate = std::make_shared<mcs::GroundTruthGate>(epsilon);
  return mcs::SparseMcsEnvironment(std::move(training_task),
                                   std::move(engine), std::move(gate),
                                   env_options);
}

TrainingResult train_agent(DrCellAgent& agent, mcs::SparseMcsEnvironment& env,
                           std::size_t episodes) {
  DRCELL_CHECK(episodes > 0);
  DRCELL_CHECK_MSG(env.num_cells() == agent.num_cells(),
                   "agent/environment cell count mismatch");
  DRCELL_CHECK_MSG(
      env.options().history_cycles == agent.config().history_cycles,
      "agent/environment state history mismatch");

  auto& trainer = agent.trainer();

  TrainingResult result;
  Stopwatch watch;
  for (std::size_t ep = 0; ep < episodes; ++ep) {
    env.reset();
    double loss_sum = 0.0;
    std::size_t loss_count = 0;
    while (!env.episode_done()) {
      const std::vector<double> state = env.state();
      const auto& mask = env.action_mask();
      const std::size_t action = trainer.select_action(state, mask);
      const mcs::StepResult step = env.step(action);

      rl::Experience e;
      e.state = state;
      e.action = action;
      e.reward = step.reward;
      e.next_state = env.state();
      e.next_mask = env.action_mask();
      e.terminal = step.episode_done;
      if (step.episode_done) {
        // The mask of a terminal state is all-zero; give the bootstrap a
        // well-formed (ignored) mask anyway.
        e.next_mask.assign(env.num_cells(), 1);
      }
      trainer.observe(std::move(e));

      const double loss = trainer.train_step();
      if (loss > 0.0) {
        loss_sum += loss;
        ++loss_count;
      }
    }
    result.episodes.push_back(env.stats());
    result.mean_losses.push_back(
        loss_count ? loss_sum / static_cast<double>(loss_count) : 0.0);
  }
  result.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace drcell::core
