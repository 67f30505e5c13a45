// Tabular Q-learning (Algorithm 1) — practical for small cell counts where
// the 2^(k·m) state space still fits in a hash table, and the reference
// point for the DRQN (Sec. 4.2's worked example / Fig. 5).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace drcell::rl {

class TabularQLearning {
 public:
  struct Options {
    double alpha = 0.5;  ///< learning rate (Eq. 2)
    double gamma = 0.9;  ///< discount factor (Eq. 2)
  };

  TabularQLearning(std::size_t num_actions, Options options);

  std::size_t num_actions() const { return num_actions_; }

  /// δ-greedy action choice among unmasked actions: the best-known action
  /// with probability 1−epsilon, otherwise a uniformly random *other*
  /// allowed action (Sec. 4.2).
  std::size_t select_action(const std::vector<double>& state,
                            const std::vector<std::uint8_t>& mask,
                            double epsilon, Rng& rng) const;

  /// Q-table update (Eqs. 2 and 3). `next_mask` restricts the max over A';
  /// `terminal` suppresses bootstrapping.
  void update(const std::vector<double>& state, std::size_t action,
              double reward, const std::vector<double>& next_state,
              const std::vector<std::uint8_t>& next_mask, bool terminal);

  /// V(S) = max over allowed actions of Q[S, A] (Eq. 3); 0 for new states.
  double state_value(const std::vector<double>& state,
                     const std::vector<std::uint8_t>& mask) const;

  std::size_t table_size() const { return table_.size(); }

 private:
  /// States are binary selection windows; pack them into 64-bit words.
  using StateKey = std::vector<std::uint64_t>;
  static StateKey make_key(const std::vector<double>& state);

  struct KeyHash {
    std::size_t operator()(const StateKey& k) const;
  };

  const std::vector<double>* find_row(const StateKey& key) const;

  std::size_t num_actions_;
  Options options_;
  std::unordered_map<StateKey, std::vector<double>, KeyHash> table_;
};

}  // namespace drcell::rl
