// Q-function approximators. Both the paper's DRQN (LSTM) and the plain
// dense DQN (the ablation baseline of Sec. 4.3: "one common way is using
// dense layers") implement this interface, so one trainer serves both.
//
// The interface is batch-major over a timestep-major batch (k matrices,
// each [batch x m] — all samples' step-t selection vectors stacked). It has
// two forward/backward pairs:
//  * forward_batch / backward, full width over dense steps: action
//    selection (DqnTrainer::select_action, the scheduler's batched DECIDE
//    phase), the per-sample oracle DqnTrainer::train_step_reference (at
//    B = 1) and the dense bench floors; forward() is the B = 1 case;
//  * forward_batch_columns / backward_columns, over sparse steps with the
//    Q head evaluated only at listed actions: the one training pair
//    (every DqnTrainer train step) and candidate-subset action selection.
// Implementations must uphold the batched determinism contract (see
// nn/layer.h): row b of the batched Q output is bit-identical to a B = 1
// forward of sample b, both pairs agree entry for entry, and the backward
// passes accumulate parameter gradients in ascending batch-row order so
// batched training replays a per-sample loop addition for addition.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "nn/layer.h"
#include "util/rng.h"

namespace drcell::rl {

/// Per-sample candidate action lists (strictly ascending cell ids) for the
/// column-restricted Q-head ops.
using ActionColumns = std::vector<std::vector<std::uint32_t>>;

class QNetwork {
 public:
  virtual ~QNetwork() = default;

  /// `timestep_major_batch` holds the k recent selection vectors, oldest
  /// first, each a [batch x m] matrix (row b = sample b's step-t vector).
  /// Returns Q-values, [batch x m] (one score per cell), as a reference
  /// into a network-owned workspace — valid until the next forward_batch
  /// on this network; copy it to keep it across calls.
  virtual const Matrix& forward_batch(
      const std::vector<Matrix>& timestep_major_batch) = 0;

  /// Per-sample convenience wrapper (action selection, diagnostics): the
  /// B = 1 case of forward_batch, returned by value.
  Matrix forward(const std::vector<Matrix>& sequence) {
    return forward_batch(sequence);
  }

  /// Backpropagates the gradient w.r.t. the Q output of the last
  /// forward_batch (same [batch x m] shape).
  virtual void backward(const Matrix& grad_q) = 0;

  /// The training forward: the same timestep-major layout with the
  /// near-one-hot steps stored sparse (the replay buffer's minibatch form),
  /// and the Q head evaluated only at each sample's listed actions
  /// (strictly ascending ids). Returns [batch x max_width]: row i's entries
  /// past columns[i].size() are padding, and every evaluated entry is
  /// bit-identical to the corresponding entry of forward_batch on the
  /// densified steps. backward_columns takes the matching gradient layout
  /// and accumulates exactly the parameter gradients of a full backward()
  /// whose gradient is zero off the listed columns.
  virtual const Matrix& forward_batch_columns(
      const std::vector<SparseRowMatrix>& timestep_major_batch,
      const ActionColumns& columns) = 0;
  virtual void backward_columns(const Matrix& grad_columns,
                                const ActionColumns& columns) = 0;

  virtual std::vector<nn::Parameter*> parameters() = 0;

  /// A freshly initialised network of identical architecture (used to build
  /// the fixed Q-target copy).
  virtual std::unique_ptr<QNetwork> clone_architecture(Rng& rng) const = 0;

  virtual std::size_t num_actions() const = 0;
  virtual std::size_t history_steps() const = 0;
  virtual std::string name() const = 0;
};

using QNetworkPtr = std::unique_ptr<QNetwork>;

/// Greedy masked argmax over row `row` of a [B x m] Q matrix: ascending
/// scan, strict `>` comparison (first maximum wins), masked-out actions
/// skipped. This is THE argmax of the library — DqnTrainer's greedy/
/// behaviour policies and the cross-campaign batched serving path
/// (core::CampaignScheduler) all call it, so a batched Q row argmaxes to
/// exactly the action a B = 1 forward would pick.
inline std::size_t masked_argmax_row(const Matrix& q, std::size_t row,
                                     const std::vector<std::uint8_t>& mask) {
  DRCELL_CHECK(mask.size() == q.cols());
  std::size_t best = mask.size();
  double best_q = -std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < mask.size(); ++a) {
    if (!mask[a]) continue;
    if (q(row, a) > best_q) {
      best_q = q(row, a);
      best = a;
    }
  }
  DRCELL_CHECK_MSG(best < mask.size(), "no selectable action");
  return best;
}

}  // namespace drcell::rl
