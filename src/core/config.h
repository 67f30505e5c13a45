// All DR-Cell hyper-parameters in one value type, with the defaults used
// throughout the evaluation (see DESIGN.md §5 for the rationale).
#pragma once

#include <cstdint>
#include <vector>

#include "mcs/environment.h"
#include "rl/dqn_trainer.h"

namespace drcell::core {

enum class NetworkKind {
  kDrqn,  ///< LSTM + dense head — the paper's network (Sec. 4.3)
  kMlp,   ///< flattened window through dense layers — the ablation baseline
};

struct DrCellConfig {
  NetworkKind network = NetworkKind::kDrqn;

  /// k — recent cycles in the RL state (shared with EnvOptions).
  std::size_t history_cycles = 2;

  // DRQN shape.
  std::size_t lstm_hidden = 64;  ///< the LSTM feeds the output layer directly

  // MLP shape (NetworkKind::kMlp only).
  std::vector<std::size_t> mlp_hidden = {128, 64};

  /// Q-learning options (γ, learning rate, replay, fixed-target sync, δ).
  rl::DqnOptions dqn;

  /// Passes over the training cycles during the offline training stage
  /// (one gradient step per environment step).
  std::size_t training_episodes = 30;

  std::uint64_t seed = 7;

  /// Environment knobs (inference window, R, c, min observations). The
  /// history_cycles above is copied into it by the helpers that build
  /// environments.
  mcs::EnvOptions env;
};

}  // namespace drcell::core
