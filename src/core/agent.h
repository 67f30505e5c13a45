// DrCellAgent — the trainable DR-Cell decision maker: a Q-network (DRQN by
// default) wrapped in the DQN trainer, plus weight (de)serialisation for
// checkpointing and transfer learning.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "core/config.h"
#include "core/health_monitor.h"
#include "rl/dqn_trainer.h"

namespace drcell::core {

class DrCellAgent {
 public:
  DrCellAgent(std::size_t num_cells, DrCellConfig config);

  const DrCellConfig& config() const { return config_; }
  std::size_t num_cells() const { return num_cells_; }

  rl::DqnTrainer& trainer() { return *trainer_; }
  const rl::DqnTrainer& trainer() const { return *trainer_; }

  /// Numeric-health sentinels over this agent's losses/Q-values/parameters
  /// (core/health_monitor.h). OnlineAdaptivePolicy feeds every train-step
  /// loss; the campaign scheduler consults and acts on the status.
  HealthMonitor& health() { return health_; }
  const HealthMonitor& health() const { return health_; }

  /// Convenience sentinel: scans the online network's tensors written since
  /// their last clean scan (HealthMonitor::check_parameters) and returns
  /// the (sticky) status. The scheduler calls it every wave.
  HealthStatus check_parameter_health();

  /// Greedy Q-maximising action (the deployed policy) from the state's
  /// one-index list (rl::DqnTrainer::greedy_action).
  std::size_t greedy_action(std::span<const std::uint32_t> state_ones,
                            const std::vector<std::uint8_t>& mask);

  void save_weights(std::ostream& out);
  void load_weights(std::istream& in);

  /// Copies this agent's online-network weights into `other` (architectures
  /// must match) — the in-process transfer-learning primitive of Sec. 4.4.
  void copy_weights_to(DrCellAgent& other);

 private:
  std::size_t num_cells_;
  DrCellConfig config_;
  std::unique_ptr<rl::DqnTrainer> trainer_;
  HealthMonitor health_;
};

}  // namespace drcell::core
