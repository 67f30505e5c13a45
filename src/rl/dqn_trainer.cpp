#include "rl/dqn_trainer.h"

#include <algorithm>
#include <limits>

#include "nn/loss.h"
#include "nn/serialize.h"
#include "util/fault_injection.h"

namespace drcell::rl {

namespace {

// Global-norm gradient clipping threshold applied before every Adam step.
constexpr double kGradClipNorm = 5.0;

std::vector<nn::Parameter*> parameters_of(QNetwork* net) {
  DRCELL_CHECK(net != nullptr);
  return net->parameters();
}

}  // namespace

DqnTrainer::DqnTrainer(QNetworkPtr online, DqnOptions options,
                       std::uint64_t seed)
    : online_(std::move(online)),
      options_(options),
      replay_(options.replay_capacity),
      encoder_(online_ ? online_->num_actions() : 1,
               online_ ? online_->history_steps() : 1),
      optimizer_(parameters_of(online_.get()), options_.learning_rate),
      rng_(seed) {
  DRCELL_CHECK(options_.gamma >= 0.0 && options_.gamma <= 1.0);
  DRCELL_CHECK(options_.batch_size > 0);
  DRCELL_CHECK(options_.target_sync_interval > 0);
  DRCELL_CHECK(options_.min_replay >= options_.batch_size);
  // train_step waits for min_replay transitions, and the ring never holds
  // more than replay_capacity: a smaller ring would never train.
  DRCELL_CHECK(options_.replay_capacity >= options_.min_replay);
  target_ = online_->clone_architecture(rng_);
  sync_target();
}

double DqnTrainer::current_epsilon() const {
  return options_.epsilon.value(env_steps_);
}

EncodedExperience DqnTrainer::encode_experience(Experience e) const {
  // Stored sparse either way: dense states are scanned once here and never
  // re-densified; sparse (metro) states never materialise k·m vectors at
  // all.
  EncodedExperience enc;
  if (e.sparse_states) {
    encoder_.ones_to_sparse_steps(e.state_ones, enc.state);
    encoder_.ones_to_sparse_steps(e.next_state_ones, enc.next_state);
  } else {
    encoder_.to_sparse_steps(e.state, enc.state);
    encoder_.to_sparse_steps(e.next_state, enc.next_state);
  }
  enc.action = e.action;
  enc.reward = e.reward;
  enc.next_mask = std::move(e.next_mask);
  enc.next_candidates = std::move(e.next_candidates);
  enc.terminal = e.terminal;
  return enc;
}

std::size_t DqnTrainer::select_action(const std::vector<double>& state,
                                      const std::vector<std::uint8_t>& mask) {
  const double eps = current_epsilon();
  ++env_steps_;
  const Matrix& q =
      online_->forward_batch(encoder_.to_sequence_batch({&state}));
  const std::size_t best = masked_argmax_row(q, 0, mask);

  std::vector<std::size_t> others;
  for (std::size_t a = 0; a < mask.size(); ++a)
    if (mask[a] && a != best) others.push_back(a);
  if (!others.empty() && rng_.bernoulli(eps))
    return others[rng_.uniform_index(others.size())];
  return best;
}

std::size_t DqnTrainer::greedy_action(const std::vector<double>& state,
                                      const std::vector<std::uint8_t>& mask) {
  const Matrix& q =
      online_->forward_batch(encoder_.to_sequence_batch({&state}));
  return masked_argmax_row(q, 0, mask);
}

void DqnTrainer::observe(Experience e) {
  DRCELL_CHECK(e.action < online_->num_actions());
  if (e.sparse_states) {
    DRCELL_CHECK_MSG(e.state.empty() && e.next_state.empty(),
                     "sparse_states transitions must leave the dense "
                     "encodings empty");
    check_state_ones(e.state_ones);
    check_state_ones(e.next_state_ones);
  } else {
    DRCELL_CHECK(e.state.size() == encoder_.state_size());
    DRCELL_CHECK(e.next_state.size() == encoder_.state_size());
  }
  check_candidate_ids(e.next_candidates);
  DRCELL_CHECK_MSG(
      e.next_mask.empty() || e.next_mask.size() == online_->num_actions(),
      "next_mask must be empty or full-width");
  if (!e.terminal && e.next_candidates.empty()) {
    // Checked here, not when a train step samples the transition: a stored
    // transition with nothing to bootstrap over would fail every minibatch
    // that draws it until the ring overwrites it.
    DRCELL_CHECK_MSG(!options_.candidate_training,
                     "candidate_training needs next_candidates on every "
                     "non-terminal transition");
    DRCELL_CHECK_MSG(std::any_of(e.next_mask.begin(), e.next_mask.end(),
                                 [](std::uint8_t allowed) { return allowed; }),
                     "a non-terminal transition without next_candidates "
                     "needs a next_mask that allows an action");
  }
  replay_.add(encode_experience(std::move(e)));
}

double DqnTrainer::bootstrap_value(const EncodedExperience& e,
                                   const Matrix& q_next_target,
                                   std::size_t row) const {
  // The reference path's bootstrap from the fixed-target network (Eq. 7)
  // over a full-width Q row, independent of the column scan in
  // train_step_on_indices. Terminal transitions contribute nothing.
  if (e.terminal) return 0.0;
  if (!e.next_candidates.empty()) {
    // Candidate-subset bootstrap: argmax restricted to the stored
    // candidates. Ascending cell ids with strict > replicate
    // masked_argmax_row's first-max-wins tie-breaking, so when the candidates
    // cover the allowed actions this equals the full masked bootstrap
    // exactly.
    std::size_t best = e.next_candidates.front();
    double best_q = -std::numeric_limits<double>::infinity();
    for (const std::uint32_t a : e.next_candidates) {
      if (q_next_target(row, a) > best_q) {
        best_q = q_next_target(row, a);
        best = a;
      }
    }
    return q_next_target(row, best);
  }
  return q_next_target(row,
                       masked_argmax_row(q_next_target, row, e.next_mask));
}

double DqnTrainer::finish_update(double raw_loss_sum, double normalizer) {
  nn::clip_grad_norm(online_->parameters(), kGradClipNorm);
  // Pooled elementwise update — bit-identical to serial for any worker
  // count (optimizer.h); it pays on the ~3.2M-parameter 10k-cell step.
  optimizer_.step(pool_ ? pool_ : &util::ThreadPool::global());
  ++train_steps_;
  if (train_steps_ % options_.target_sync_interval == 0) sync_target();
  return raw_loss_sum / normalizer;
}

double DqnTrainer::train_step() {
  // Planted before the replay sample so a transient injected fault does not
  // advance the sampling stream — a retried/skipped step trains on exactly
  // the batch the uninterrupted run would have drawn.
  DRCELL_FAULT_SITE("train.step", "");
  if (replay_.size() < options_.min_replay) return 0.0;
  const auto batch = replay_.sample_indices(options_.batch_size, rng_);
  return train_step_on_indices(batch);
}

double DqnTrainer::train_step_reference() {
  if (replay_.size() < options_.min_replay) return 0.0;
  const auto batch = replay_.sample_indices(options_.batch_size, rng_);
  return train_step_reference_on_indices(batch);
}

double DqnTrainer::train_step_on_indices(
    std::span<const std::size_t> indices) {
  // One sparse timestep-major minibatch for the current and next states,
  // appended from the transitions observe() encoded. The online Q head is
  // evaluated only at each row's taken action and the fixed-target head
  // only at its bootstrap columns, so the masked Huber loss runs over
  // [b x 1]: exactly the taken-action entries of a full-width [b x m] loss,
  // and the same parameter update, at O(b·(1 + columns)·hidden) head work
  // instead of O(b·m·hidden).
  const std::size_t b = indices.size();
  DRCELL_CHECK(b > 0);
  replay_.fill_timestep_major_sparse(indices, state_sseq_ws_, next_sseq_ws_);

  action_cols_ws_.resize(b);
  next_cols_ws_.resize(b);
  for (std::size_t i = 0; i < b; ++i) {
    const EncodedExperience& e = replay_.at(indices[i]);
    action_cols_ws_[i].assign(1, static_cast<std::uint32_t>(e.action));
    // Bootstrap columns: the stored candidates, else the ascending allowed
    // actions of the mask. A terminal row is never bootstrapped; one
    // well-formed column keeps the batch rectangular.
    auto& cols = next_cols_ws_[i];
    if (e.terminal) {
      cols.assign(1, 0);
    } else if (!e.next_candidates.empty()) {
      cols = e.next_candidates;
    } else {
      cols.clear();
      for (std::size_t a = 0; a < e.next_mask.size(); ++a)
        if (e.next_mask[a]) cols.push_back(static_cast<std::uint32_t>(a));
    }
  }

  // The target and online networks are distinct objects, so their batch
  // forwards run as two concurrent pool lanes. Results are bit-identical to
  // the serial path for any worker count.
  const Matrix* q_next_target = nullptr;
  const Matrix* q_pred = nullptr;
  util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();
  pool.parallel_for(2, [&](std::size_t lane) {
    if (lane == 0) {
      q_next_target =
          &target_->forward_batch_columns(next_sseq_ws_, next_cols_ws_);
    } else {
      q_pred = &online_->forward_batch_columns(state_sseq_ws_, action_cols_ws_);
    }
  });

  // Regress the taken action's Q-value towards R + γ max Q'(S', A') with a
  // masked Huber loss (Eqs. 5-7).
  targets_ws_.resize(b, 1);
  mask_ws_.resize(b, 1);
  for (std::size_t i = 0; i < b; ++i) {
    const EncodedExperience& e = replay_.at(indices[i]);
    double boot = 0.0;
    if (!e.terminal) {
      // First maximum over the row's ascending columns (strict >), as
      // masked_argmax_row scans, so a covering column list bootstraps
      // exactly as the full masked argmax would.
      std::size_t best = 0;
      double best_q = -std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < next_cols_ws_[i].size(); ++j) {
        if ((*q_next_target)(i, j) > best_q) {
          best_q = (*q_next_target)(i, j);
          best = j;
        }
      }
      boot = (*q_next_target)(i, best);
    }
    targets_ws_(i, 0) = e.reward + options_.gamma * boot;
    mask_ws_(i, 0) = 1.0;
  }

  // One masked entry per row, so the normalizer (mask count = b) is the
  // full-width loss's too.
  const auto loss = nn::masked_huber_loss(*q_pred, targets_ws_, mask_ws_,
                                          options_.huber_delta);
  optimizer_.zero_grad();
  online_->backward_columns(loss.grad, action_cols_ws_);
  return finish_update(loss.raw_sum, loss.normalizer);
}

void DqnTrainer::check_candidate_ids(
    std::span<const std::uint32_t> candidates) const {
  // The restricted forwards and the bootstrap index weight and Q columns by
  // these ids; their own range checks are DCHECKs, so Release builds rely
  // on this one.
  const std::size_t actions = online_->num_actions();
  for (const std::uint32_t a : candidates)
    DRCELL_CHECK_MSG(a < actions, "candidate action id out of range");
}

void DqnTrainer::check_state_ones(
    std::span<const std::uint32_t> ones) const {
  // StateEncoder's one-index paths pick the step row as flat / cells and
  // append in list order; their own checks are DCHECKs.
  const std::size_t size = encoder_.state_size();
  for (std::size_t i = 0; i < ones.size(); ++i)
    DRCELL_CHECK_MSG(ones[i] < size && (i == 0 || ones[i - 1] < ones[i]),
                     "state one-indices must be strictly ascending and "
                     "below k * cells");
}

const Matrix& DqnTrainer::candidate_forward(
    std::span<const std::uint32_t> state_ones,
    std::span<const std::uint32_t> candidates) {
  DRCELL_CHECK_MSG(!candidates.empty(), "no candidate actions");
  check_candidate_ids(candidates);
  check_state_ones(state_ones);
  const std::size_t k = encoder_.history_cycles();
  sel_seq_ws_.resize(k);
  for (auto& step : sel_seq_ws_) step.reset(1, encoder_.cells());
  encoder_.ones_to_sequence_row(state_ones, 0, sel_seq_ws_);
  sel_cols_ws_.resize(1);
  sel_cols_ws_[0].assign(candidates.begin(), candidates.end());
  return online_->forward_batch_columns(sel_seq_ws_, sel_cols_ws_);
}

std::vector<double> DqnTrainer::candidate_q_values(
    std::span<const std::uint32_t> state_ones,
    std::span<const std::uint32_t> candidates) {
  const Matrix& q = candidate_forward(state_ones, candidates);
  std::vector<double> out(candidates.size());
  for (std::size_t j = 0; j < candidates.size(); ++j) out[j] = q(0, j);
  return out;
}

std::size_t DqnTrainer::candidate_argmax(
    std::span<const std::uint32_t> state_ones,
    std::span<const std::uint32_t> candidates) {
  const Matrix& q = candidate_forward(state_ones, candidates);
  std::size_t best = 0;
  double best_q = -std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    if (q(0, j) > best_q) {
      best_q = q(0, j);
      best = j;
    }
  }
  return best;
}

std::size_t DqnTrainer::select_action_candidates(
    std::span<const std::uint32_t> state_ones,
    std::span<const std::uint32_t> candidates) {
  // Score first, so a rejected candidate list leaves the schedule as it was.
  const std::size_t best = candidate_argmax(state_ones, candidates);
  const double eps = current_epsilon();
  ++env_steps_;
  // Same δ-greedy draw pattern as select_action: explore only when an
  // alternative exists, drawing uniformly from the non-greedy candidates.
  if (candidates.size() > 1 && rng_.bernoulli(eps)) {
    std::size_t j = rng_.uniform_index(candidates.size() - 1);
    if (j >= best) ++j;
    return candidates[j];
  }
  return candidates[best];
}

std::vector<Matrix> DqnTrainer::to_reference_sequence(
    const SparseRowMatrix& s) const {
  // Densifies a stored sparse state into the dense B = 1 timestep-major
  // sequence the full-width forward_batch takes, so the oracle does not
  // share the training step's sparse input path.
  std::vector<Matrix> seq(s.rows());
  for (std::size_t j = 0; j < s.rows(); ++j) {
    seq[j].resize(1, s.cols());
    const auto cols = s.row_indices(j);
    const auto vals = s.row_values(j);
    for (std::size_t e = 0; e < cols.size(); ++e)
      seq[j](0, cols[e]) = vals[e];
  }
  return seq;
}

double DqnTrainer::train_step_reference_on_indices(
    std::span<const std::size_t> indices) {
  // The per-sample update of Algorithm 2, retained as the oracle the
  // batched engine must match bit for bit: every transition runs as its own
  // dense B=1 timestep-major sequence through each network's full-width
  // forward_batch/backward — target forward, full-width bootstrap, online
  // forward, per-sample masked loss gradient (normalised by the whole
  // minibatch's element count so it equals the batched gradient row),
  // backward — with gradients accumulating sample by sample.
  const std::size_t b = indices.size();
  DRCELL_CHECK(b > 0);
  const std::size_t actions = online_->num_actions();
  const double normalizer = static_cast<double>(b);

  optimizer_.zero_grad();
  double raw_loss_sum = 0.0;
  for (std::size_t i = 0; i < b; ++i) {
    const EncodedExperience& e = replay_.at(indices[i]);
    const std::vector<Matrix> next_seq = to_reference_sequence(e.next_state);
    const std::vector<Matrix> state_seq = to_reference_sequence(e.state);

    const double boot = bootstrap_value(e, target_->forward_batch(next_seq), 0);
    const Matrix& q_pred = online_->forward_batch(state_seq);

    Matrix target_row(1, actions);
    Matrix mask_row(1, actions);
    target_row(0, e.action) = e.reward + options_.gamma * boot;
    mask_row(0, e.action) = 1.0;
    const auto loss = nn::masked_huber_loss(q_pred, target_row, mask_row,
                                            options_.huber_delta, normalizer);
    raw_loss_sum += loss.raw_sum;
    online_->backward(loss.grad);
  }
  return finish_update(raw_loss_sum, normalizer);
}

void DqnTrainer::sync_target() {
  nn::copy_parameters(online_->parameters(), target_->parameters());
}

}  // namespace drcell::rl
