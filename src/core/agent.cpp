#include "core/agent.h"

#include "nn/serialize.h"
#include "rl/drqn_qnetwork.h"
#include "rl/mlp_qnetwork.h"

namespace drcell::core {

namespace {
rl::QNetworkPtr build_network(std::size_t num_cells,
                              const DrCellConfig& config, Rng& rng) {
  switch (config.network) {
    case NetworkKind::kDrqn:
      return std::make_unique<rl::DrqnQNetwork>(
          num_cells, config.history_cycles, config.lstm_hidden, rng);
    case NetworkKind::kMlp:
      return std::make_unique<rl::MlpQNetwork>(
          num_cells, config.history_cycles, config.mlp_hidden, rng);
  }
  DRCELL_CHECK_MSG(false, "unknown network kind");
  return nullptr;
}
}  // namespace

DrCellAgent::DrCellAgent(std::size_t num_cells, DrCellConfig config)
    : num_cells_(num_cells), config_(std::move(config)) {
  DRCELL_CHECK(num_cells_ > 0);
  DRCELL_CHECK(config_.history_cycles > 0);
  Rng rng(config_.seed);
  trainer_ = std::make_unique<rl::DqnTrainer>(
      build_network(num_cells_, config_, rng), config_.dqn, rng.next_u64());
}

HealthStatus DrCellAgent::check_parameter_health() {
  return health_.check_parameters(trainer_->online().parameters());
}

std::size_t DrCellAgent::greedy_action(
    std::span<const std::uint32_t> state_ones,
    const std::vector<std::uint8_t>& mask) {
  return trainer_->greedy_action(state_ones, mask);
}

void DrCellAgent::save_weights(std::ostream& out) {
  nn::save_parameters(out, trainer_->online().parameters());
}

void DrCellAgent::load_weights(std::istream& in) {
  nn::load_parameters(in, trainer_->online().parameters());
  trainer_->sync_target();
}

void DrCellAgent::copy_weights_to(DrCellAgent& other) {
  nn::copy_parameters(trainer_->online().parameters(),
                      other.trainer_->online().parameters());
  other.trainer_->sync_target();
}

}  // namespace drcell::core
