// One transition e_t = <S, A, R, S'> of Sec. 4.3, extended with the action
// mask of S' (cells already sensed in the next state may not be chosen, so
// the bootstrap max must exclude them) and a terminal flag (the end of the
// training horizon must not bootstrap into the next episode).
//
// Metro-tier extensions (10,000 cells): a dense transition costs
// 2·k·cells doubles for the states plus cells bytes for the mask — ~330 KB
// each, gigabytes per replay pool. `sparse_states` switches the state
// representation to the ascending flat indices of the 1.0 entries (the
// selection encodings are exactly one-hot unions), and `next_candidates`
// records the candidate action subset generated at S' so the bootstrap
// argmax can be restricted to it without storing a 10k-wide mask.
//
// This is the input form only: DqnTrainer::observe encodes either state
// representation into the replay buffer's sparse EncodedExperience
// (rl/replay_buffer.h) and drops the vectors, so the two representations
// train bit-identically. Either way a train step evaluates the target Q
// head only at the bootstrap actions (DqnTrainer::train_step_on_indices).
#pragma once

#include <cstdint>
#include <vector>

namespace drcell::rl {

struct Experience {
  std::vector<double> state;             ///< flat k*m encoding of S
  std::size_t action = 0;                ///< A: the selected cell
  double reward = 0.0;                   ///< R = q·R − c
  std::vector<double> next_state;        ///< flat encoding of S'
  std::vector<std::uint8_t> next_mask;   ///< valid actions at S'
  bool terminal = false;                 ///< no bootstrapping past here

  /// When set, `state`/`next_state` stay empty and the flat encodings are
  /// given by the ascending index lists below (all entries 1.0) — see
  /// mcs::StateEncoder::encode_ones.
  bool sparse_states = false;
  std::vector<std::uint32_t> state_ones;       ///< S's 1.0 entries
  std::vector<std::uint32_t> next_state_ones;  ///< S''s 1.0 entries
  /// Candidate actions at S' (ascending cell ids, a subset of the allowed
  /// actions). Non-empty: the bootstrap argmax runs over them and
  /// `next_mask` may be left empty. Empty: it runs over the actions
  /// `next_mask` allows, which must be at least one unless `terminal`.
  std::vector<std::uint32_t> next_candidates;
};

}  // namespace drcell::rl
