// Uniform experience-replay memory (the pool D of Algorithm 2).
//
// The buffer holds transitions in their training form only: DqnTrainer::
// observe encodes each one once (EncodedExperience), and the minibatch
// assembly appends the stored rows without re-encoding. The states are
// one-hot unions, so they are stored *sparse* (SparseRowMatrix, one
// [k x cells] per state): a dense encoded transition costs ~2·k·cells
// doubles, ~330 KB at the 10,000-cell metro tier, while the sparse form
// costs ~12 bytes per selected cell.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/sparse_matrix.h"
#include "util/rng.h"

namespace drcell::rl {

/// One stored transition <S, A, R, S'>. Row j of each [k x cells] state
/// matrix is step j of S (resp. S') — see mcs::StateEncoder::to_sparse_steps.
/// The bootstrap fields mirror rl::Experience.
struct EncodedExperience {
  SparseRowMatrix state;
  std::size_t action = 0;
  double reward = 0.0;
  SparseRowMatrix next_state;
  std::vector<std::uint8_t> next_mask;          ///< valid actions at S'
  std::vector<std::uint32_t> next_candidates;  ///< candidate actions at S'
  bool terminal = false;
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// Adds a transition, evicting the oldest once full (ring buffer).
  void add(EncodedExperience e);

  /// Uniformly samples `count` slot indices with replacement.
  std::vector<std::size_t> sample_indices(std::size_t count, Rng& rng) const;

  /// Shapes `state_seq`/`next_seq` to k SparseRowMatrix of
  /// [indices.size() x cells] (entry storage reused across calls) and
  /// appends transition indices[i]'s stored rows as row i — the trainer's
  /// timestep-major minibatch, assembled in O(nonzeros) with rows in
  /// ascending i order.
  void fill_timestep_major_sparse(std::span<const std::size_t> indices,
                                  std::vector<SparseRowMatrix>& state_seq,
                                  std::vector<SparseRowMatrix>& next_seq) const;

  const EncodedExperience& at(std::size_t i) const { return items_.at(i); }

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  // ring cursor once at capacity
  std::vector<EncodedExperience> items_;
};

}  // namespace drcell::rl
