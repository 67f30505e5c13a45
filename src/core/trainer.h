// The offline training stage (Sec. 5.3): the organiser runs a preliminary
// study collecting data from every cell for a short period (e.g. two
// days); DR-Cell then learns its Q-function on that data with Algorithm 2,
// checking quality against the known ground truth (footnote 2).
#pragma once

#include <memory>
#include <vector>

#include "core/agent.h"
#include "cs/inference_engine.h"
#include "mcs/environment.h"

namespace drcell::core {

struct TrainingResult {
  std::vector<mcs::EpisodeStats> episodes;
  std::vector<double> mean_losses;  ///< mean TD loss per episode
  double seconds = 0.0;

  double final_cells_per_cycle() const {
    return episodes.empty() ? 0.0
                            : episodes.back().average_selections_per_cycle();
  }
};

/// Builds the training-stage environment for a task slice: GroundTruthGate
/// at the given epsilon, environment options from the agent config (with
/// history_cycles kept consistent).
mcs::SparseMcsEnvironment make_training_environment(
    std::shared_ptr<const mcs::SensingTask> training_task,
    cs::InferenceEnginePtr engine, double epsilon, const DrCellConfig& config);

/// Runs `episodes` full passes (episodes) of Algorithm 2 over the training
/// environment. The agent's replay pool and exploration schedule persist
/// across calls, so this can also fine-tune an already-trained agent
/// (transfer learning) or continue training online.
///
/// Each trainer.train_step() inside the loop is one batched minibatch
/// update: the replay buffer assembles a timestep-major [batch x cells]
/// window batch from its encoded-sequence cache and the whole
/// forward/loss/backward pipeline runs as batch-level GEMMs (see
/// rl/dqn_trainer.h).
TrainingResult train_agent(DrCellAgent& agent, mcs::SparseMcsEnvironment& env,
                           std::size_t episodes);

}  // namespace drcell::core
