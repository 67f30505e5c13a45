#include "core/policy.h"

namespace drcell::core {

DrCellPolicy::DrCellPolicy(DrCellAgent& agent) : agent_(agent) {}

std::size_t DrCellPolicy::select(const mcs::SparseMcsEnvironment& env) {
  return agent_.greedy_action(env.state_ones(), env.action_mask());
}

OnlineAdaptivePolicy::OnlineAdaptivePolicy(DrCellAgent& agent, double epsilon,
                                           std::uint64_t seed)
    : agent_(agent), epsilon_(epsilon), rng_(seed) {
  DRCELL_CHECK(epsilon_ >= 0.0 && epsilon_ <= 1.0);
}

std::size_t OnlineAdaptivePolicy::select(
    const mcs::SparseMcsEnvironment& env) {
  const auto& mask = env.action_mask();
  std::size_t action = agent_.greedy_action(env.state_ones(), mask);
  if (rng_.bernoulli(epsilon_)) {
    std::vector<std::size_t> others;
    for (std::size_t a = 0; a < mask.size(); ++a)
      if (mask[a] && a != action) others.push_back(a);
    if (!others.empty()) action = others[rng_.uniform_index(others.size())];
  }
  // The replay transition keeps the dense state (DqnTrainer::observe
  // encodes it once).
  pending_state_ = env.state();
  pending_action_ = action;
  has_pending_ = true;
  return action;
}

void OnlineAdaptivePolicy::on_step(const mcs::SparseMcsEnvironment& env,
                                   std::size_t action,
                                   const mcs::StepResult& result) {
  if (!has_pending_ || action != pending_action_) return;
  has_pending_ = false;

  rl::Experience e;
  e.state = std::move(pending_state_);
  e.action = action;
  e.reward = result.reward;
  e.next_state = env.state();
  e.next_mask = env.action_mask();
  e.terminal = result.episode_done;
  if (result.episode_done) e.next_mask.assign(env.num_cells(), 1);
  agent_.trainer().observe(std::move(e));
  const double loss = agent_.trainer().train_step();
  // One train step on NaN-poisoned weights produces a NaN Huber loss, so
  // the sentinel trips within that very step (core/health_monitor.h). The
  // scheduler reads agent_.health() after the wave and recovers.
  agent_.health().record_loss(loss);
}

DrCellAgent* trainable_agent_of(baselines::CellSelector* selector) {
  if (auto* frozen = dynamic_cast<DrCellPolicy*>(selector))
    return &frozen->agent();
  if (auto* online = dynamic_cast<OnlineAdaptivePolicy*>(selector))
    return &online->online_agent();
  return nullptr;
}

}  // namespace drcell::core
