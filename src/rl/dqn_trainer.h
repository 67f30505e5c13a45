// Deep (recurrent) Q-network learning, Algorithm 2 of the paper: δ-greedy
// behaviour policy, experience replay, fixed Q-targets synchronised every
// RPLACE_ITER gradient steps, TD loss (Eqs. 5-7) restricted to the action
// actually taken.
//
// observe() encodes each transition once into the replay buffer's sparse
// form, whichever state representation it arrives in (dense vectors or
// one-index lists). train_step() has one update body, batch-major end to
// end: the replay buffer appends the stored rows into one sparse
// timestep-major minibatch (ReplayBuffer::fill_timestep_major_sparse), the
// online network evaluates its Q head only at each row's taken action and
// the fixed target only at the row's bootstrap columns (its stored
// next_candidates, else the allowed actions of its next_mask), both through
// QNetwork::forward_batch_columns, and the masked TD loss and the backward
// pass run over those columns. The per-sample loop survives only as
// train_step_reference() — each network's own full-width forward_batch /
// backward at B = 1, the oracle the batched engine matches bit for bit
// under either compute backend, both sides running the backend's own gate
// kernels (tests/batched_training_test.cpp, docs/ARCHITECTURE.md, and the
// self-checks in bench_micro_components and bench_scale_1000cell).
#pragma once

#include <memory>
#include <span>

#include "mcs/state_encoder.h"
#include "nn/optimizer.h"
#include "rl/epsilon.h"
#include "rl/experience.h"
#include "rl/qnetwork.h"
#include "rl/replay_buffer.h"
#include "util/thread_pool.h"

namespace drcell::rl {

struct DqnOptions {
  double gamma = 0.9;                 ///< discount factor
  double learning_rate = 1e-3;        ///< Adam step size
  std::size_t batch_size = 32;        ///< replay minibatch
  std::size_t replay_capacity = 20000;  ///< must be >= min_replay
  std::size_t min_replay = 200;       ///< warm-up before training starts
  std::size_t target_sync_interval = 150;  ///< RPLACE_ITER of Algorithm 2
  double huber_delta = 1.0;           ///< TD-error robustness threshold
  /// Declares candidate-subset training (metro tier): observe() then
  /// rejects a non-terminal transition without next_candidates. Every
  /// train step already bootstraps over a transition's stored candidates
  /// when it has them; this flag selects no code path.
  bool candidate_training = false;
  EpsilonSchedule epsilon{1.0, 0.05, 5000};
};

class DqnTrainer {
 public:
  /// Takes ownership of the online network; the fixed-target copy is built
  /// via clone_architecture and immediately synchronised.
  DqnTrainer(QNetworkPtr online, DqnOptions options, std::uint64_t seed);

  QNetwork& online() { return *online_; }
  /// The fixed-target copy. Exposed for inspection and for fault drills:
  /// poisoning the target corrupts the TD loss without touching the action
  /// path, which is how tests pin the loss sentinel's one-step detection.
  QNetwork& target() { return *target_; }
  const DqnOptions& options() const { return options_; }
  ReplayBuffer& replay() { return replay_; }
  std::size_t env_steps() const { return env_steps_; }
  std::size_t train_steps() const { return train_steps_; }
  double current_epsilon() const;

  /// δ-greedy action over the unmasked cells; advances the exploration
  /// schedule by one step.
  std::size_t select_action(const std::vector<double>& state,
                            const std::vector<std::uint8_t>& mask);

  /// Greedy (δ = 0) action — the deployed policy of the testing stage.
  std::size_t greedy_action(const std::vector<double>& state,
                            const std::vector<std::uint8_t>& mask);

  /// Candidate-subset variant (metro tier): the state arrives as its
  /// sparse one-index list (mcs::SparseMcsEnvironment::state_ones) and only
  /// `candidates` (strictly ascending cell ids, all currently selectable)
  /// are scored — one B=1 sparse forward of the restricted Q head instead
  /// of a k·m dense encode plus full-width forward. It draws its
  /// exploration from the candidate set and advances the schedule; every
  /// scored Q-value is bit-identical to the full forward's.
  std::size_t select_action_candidates(
      std::span<const std::uint32_t> state_ones,
      std::span<const std::uint32_t> candidates);

  /// Q-values of `candidates`, in candidate order, from the same B=1
  /// sparse restricted forward select_action_candidates argmaxes over —
  /// for policies that post-process candidate scores (e.g. test-time
  /// symmetry averaging) instead of taking the raw argmax.
  std::vector<double> candidate_q_values(
      std::span<const std::uint32_t> state_ones,
      std::span<const std::uint32_t> candidates);

  /// Checks a transition, encodes it once and stores it in the replay pool.
  /// A non-terminal transition must have next_candidates, or a next_mask
  /// that allows at least one action (and, under candidate_training,
  /// next_candidates).
  void observe(Experience e);

  /// One batched minibatch update; returns the TD loss, or 0 while the
  /// pool is below the warm-up threshold.
  double train_step();

  /// The batched update on a caller-chosen minibatch (exposed so tests and
  /// the bench can drive it and the reference over the identical batch).
  double train_step_on_indices(std::span<const std::size_t> indices);

  /// The retained per-sample reference update (Algorithm 2's one
  /// transition at a time): samples the same draw stream, then
  /// forwards/backpropagates each transition as its own dense B=1 sequence
  /// through the network's full-width forward_batch/backward, bootstraps
  /// over the full-width target row and accumulates gradients sample by
  /// sample. Bit-identical to train_step() by the batched determinism
  /// contract; kept as the oracle of the bit-identity tests. The bench
  /// floors (train_step_batched, scale_train_step_1000cell) run it on the
  /// bench-local pre-refactor DRQN of bench/pre_refactor_drqn.h.
  double train_step_reference();
  double train_step_reference_on_indices(
      std::span<const std::size_t> indices);

  /// Copies the online parameters into the fixed-target network.
  void sync_target();

  /// Checkpoint/resume: restores the step counters that drive the epsilon
  /// schedule (env_steps) and the target-sync cadence (train_steps) — the
  /// "epsilon state" of the scheduler checkpoint contract
  /// (core/checkpoint.h). Weights are restored separately via the
  /// parameter (de)serialisation in nn/serialize.h.
  void restore_counters(std::size_t env_steps, std::size_t train_steps) {
    env_steps_ = env_steps;
    train_steps_ = train_steps;
  }

  /// Overrides the pool that runs the batch forwards of train_step.
  /// nullptr restores the global pool.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }

 private:
  /// Encodes both states sparse and moves the bootstrap fields over.
  EncodedExperience encode_experience(Experience e) const;
  /// The reference path's max Q'(S', A') over e's candidate or allowed
  /// actions, read from row `row` of a full-width target Q matrix (0 for
  /// a terminal transition).
  double bootstrap_value(const EncodedExperience& e,
                         const Matrix& q_next_target, std::size_t row) const;
  /// Shared epilogue of the batched and the reference update: clip,
  /// optimiser step, target sync cadence.
  double finish_update(double raw_loss_sum, double normalizer);
  /// DRCELL_CHECKs that every id is < num_actions().
  void check_candidate_ids(std::span<const std::uint32_t> candidates) const;
  /// DRCELL_CHECKs that a one-index state is strictly ascending and every
  /// index is < k * cells.
  void check_state_ones(std::span<const std::uint32_t> ones) const;
  /// The B=1 sparse column-restricted forward of `candidates` (checked);
  /// returns the 1 x |candidates| Q row.
  const Matrix& candidate_forward(std::span<const std::uint32_t> state_ones,
                                  std::span<const std::uint32_t> candidates);
  /// Position (not cell id) of the greedy candidate in `candidates` after
  /// one B=1 sparse column-restricted forward.
  std::size_t candidate_argmax(std::span<const std::uint32_t> state_ones,
                               std::span<const std::uint32_t> candidates);
  /// Densifies one stored sparse encoding into the B=1 timestep-major
  /// sequence the reference update feeds to forward_batch.
  std::vector<Matrix> to_reference_sequence(const SparseRowMatrix& s) const;

  QNetworkPtr online_;
  QNetworkPtr target_;
  DqnOptions options_;
  ReplayBuffer replay_;
  mcs::StateEncoder encoder_;
  nn::Adam optimizer_;
  Rng rng_;
  util::ThreadPool* pool_ = nullptr;  // nullptr -> ThreadPool::global()
  std::size_t env_steps_ = 0;
  std::size_t train_steps_ = 0;
  // Minibatch workspaces reused across train steps (sparse timestep-major
  // batch, Q-head columns, TD targets and loss mask).
  std::vector<SparseRowMatrix> state_sseq_ws_;
  std::vector<SparseRowMatrix> next_sseq_ws_;
  ActionColumns action_cols_ws_;  // width-1 taken-action columns
  ActionColumns next_cols_ws_;    // per-sample bootstrap columns
  Matrix targets_ws_;
  Matrix mask_ws_;
  // B=1 candidate action-selection workspaces (metro tier).
  std::vector<SparseRowMatrix> sel_seq_ws_;
  ActionColumns sel_cols_ws_;
};

}  // namespace drcell::rl
