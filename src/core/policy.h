// Deployment policies wrapping a trained DrCellAgent as a CellSelector so
// the campaign runner can evaluate DR-Cell next to QBC and RANDOM.
#pragma once

#include <algorithm>
#include <array>

#include "baselines/selector.h"
#include "core/agent.h"

namespace drcell::core {

/// Frozen greedy policy — the paper's testing stage: always take the action
/// with the largest Q-value (Sec. 5.3).
///
/// Batching contract: select() is exactly
///
///   env.state_ones() -> StateEncoder::ones_to_sequence_row (sparse steps)
///     -> agent().trainer().online().forward_batch (B = 1, full width)
///     -> rl::masked_argmax_row(q, 0, env.action_mask())
///
/// Under the batched determinism contract (rl/qnetwork.h: row b of a
/// batched forward is bit-identical to the B = 1 forward of sample b) the
/// multi-campaign scheduler (core/campaign_scheduler.h) finds these
/// campaigns by type, stacks the sparse states of every campaign on one
/// agent into one forward_batch and argmaxes each row, producing per
/// campaign exactly the action select() would. The class is final so
/// nothing can override select() behind the scheduler's back; a selector
/// that explores, post-processes scores or consults non-Q state wraps a
/// DrCellPolicy instead of deriving from it and is stepped through
/// select().
class DrCellPolicy final : public baselines::CellSelector {
 public:
  explicit DrCellPolicy(DrCellAgent& agent);

  std::size_t select(const mcs::SparseMcsEnvironment& env) override;
  std::string name() const override { return "DR-Cell"; }

  DrCellAgent& agent() { return agent_; }

 private:
  DrCellAgent& agent_;
};

/// Future-work extension (Sec. 6, "online manner"): keeps δ-greedy
/// exploration and Q-updates running during the testing stage. The reward
/// signal is observable at test time because q is the *assessed* quality
/// decision of the LOO Bayesian gate, not the unknown true error.
class OnlineAdaptivePolicy final : public baselines::CellSelector {
 public:
  /// `epsilon` is the (small, constant) test-time exploration rate.
  OnlineAdaptivePolicy(DrCellAgent& agent, double epsilon,
                       std::uint64_t seed);

  std::size_t select(const mcs::SparseMcsEnvironment& env) override;
  void on_step(const mcs::SparseMcsEnvironment& env, std::size_t action,
               const mcs::StepResult& result) override;
  std::string name() const override { return "DR-Cell-online"; }

  /// Checkpoint scope (core/checkpoint.h): the exploration RNG stream only.
  /// Weights and trainer counters travel in the checkpoint's agent table;
  /// the replay buffer is deliberately out of scope, so a resumed online
  /// campaign warms its pool up again — its future *training* (not its
  /// restored weights) may diverge from the uninterrupted run. The
  /// bit-identical resume guarantee covers non-training selectors.
  std::vector<std::uint64_t> checkpoint_state_words() const override {
    const auto s = rng_.save_state();
    return std::vector<std::uint64_t>(s.begin(), s.end());
  }
  void restore_state_words(const std::vector<std::uint64_t>& words) override {
    DRCELL_CHECK_MSG(words.size() == 6,
                     "DR-Cell-online checkpoint needs 6 words");
    std::array<std::uint64_t, 6> s;
    std::copy(words.begin(), words.end(), s.begin());
    rng_.restore_state(s);
  }

  DrCellAgent& online_agent() { return agent_; }

 private:
  DrCellAgent& agent_;
  double epsilon_;
  Rng rng_;
  std::vector<double> pending_state_;
  std::size_t pending_action_ = 0;
  bool has_pending_ = false;
};

/// The trainable agent behind a selector, if any — nullptr for the
/// weightless baselines. Enumerates every selector type that carries
/// weights; the checkpoint layer's agent-dedup table and the scheduler's
/// health monitoring share this one definition.
DrCellAgent* trainable_agent_of(baselines::CellSelector* selector);

}  // namespace drcell::core
