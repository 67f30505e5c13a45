#include "rl/drqn_qnetwork.h"

#include "nn/activations.h"
#include "nn/sequential.h"

namespace drcell::rl {

DrqnQNetwork::DrqnQNetwork(std::size_t num_cells, std::size_t history_steps,
                           std::size_t lstm_hidden, std::size_t head_hidden,
                           Rng& rng)
    : num_cells_(num_cells),
      history_steps_(history_steps),
      head_hidden_(head_hidden),
      lstm_(num_cells, lstm_hidden, rng) {
  DRCELL_CHECK(num_cells_ > 0 && history_steps_ > 0);
  if (head_hidden_ > 0) {
    head_.emplace<nn::Dense>(lstm_hidden, head_hidden_, rng);
    head_.emplace<nn::ReLU>();
    head_.emplace<nn::Dense>(head_hidden_, num_cells_, rng);
  } else {
    head_.emplace<nn::Dense>(lstm_hidden, num_cells_, rng);
  }
}

const Matrix& DrqnQNetwork::forward_batch(
    const std::vector<Matrix>& timestep_major_batch) {
  DRCELL_CHECK_MSG(timestep_major_batch.size() == history_steps_,
                   "sequence length mismatch");
  return head_.forward(lstm_.forward(timestep_major_batch));
}

void DrqnQNetwork::backward(const Matrix& grad_q) {
  // The DRQN never consumes gradients w.r.t. its (one-hot state) inputs,
  // so the LSTM skips the per-step dz·Wxᵀ products entirely.
  lstm_.backward(head_.backward(grad_q), /*compute_input_grads=*/false);
}

const Matrix& DrqnQNetwork::forward_batch_sparse(
    const std::vector<SparseRowMatrix>& timestep_major_batch) {
  DRCELL_CHECK_MSG(timestep_major_batch.size() == history_steps_,
                   "sequence length mismatch");
  return head_.forward(lstm_.forward(timestep_major_batch));
}

const Matrix& DrqnQNetwork::forward_batch_columns(
    const std::vector<SparseRowMatrix>& timestep_major_batch,
    const ActionColumns& columns) {
  DRCELL_CHECK_MSG(timestep_major_batch.size() == history_steps_,
                   "sequence length mismatch");
  // All head layers but the output Dense run in full (they are
  // hidden-width, not action-width); only the final m-wide projection is
  // restricted to the candidate columns.
  const Matrix* x = &lstm_.forward(timestep_major_batch);
  for (std::size_t i = 0; i + 1 < head_.layer_count(); ++i)
    x = &head_.layer(i).forward(*x);
  auto& out = static_cast<nn::Dense&>(head_.layer(head_.layer_count() - 1));
  return out.forward_columns(*x, columns);
}

void DrqnQNetwork::backward_columns(const Matrix& grad_columns,
                                    const ActionColumns& columns) {
  auto& out = static_cast<nn::Dense&>(head_.layer(head_.layer_count() - 1));
  const Matrix* g = &out.backward_columns(grad_columns, columns);
  for (std::size_t i = head_.layer_count() - 1; i-- > 0;)
    g = &head_.layer(i).backward(*g);
  lstm_.backward(*g, /*compute_input_grads=*/false);
}

Matrix DrqnQNetwork::forward_reference(const std::vector<Matrix>& sequence) {
  DRCELL_CHECK_MSG(sequence.size() == history_steps_,
                   "sequence length mismatch");
  const Matrix last_hidden = lstm_.forward_reference(sequence);
  return head_.forward_reference(last_hidden);
}

void DrqnQNetwork::backward_reference(const Matrix& grad_q) {
  // Pre-refactor behaviour: input gradients computed (and discarded), with
  // Wxᵀ/Whᵀ materialised every step.
  const Matrix grad_hidden = head_.backward_reference(grad_q);
  (void)lstm_.backward_reference(grad_hidden);
}

std::vector<nn::Parameter*> DrqnQNetwork::parameters() {
  auto ps = lstm_.parameters();
  const auto head_ps = head_.parameters();
  ps.insert(ps.end(), head_ps.begin(), head_ps.end());
  return ps;
}

std::unique_ptr<QNetwork> DrqnQNetwork::clone_architecture(Rng& rng) const {
  return std::make_unique<DrqnQNetwork>(num_cells_, history_steps_,
                                        lstm_.hidden_size(), head_hidden_,
                                        rng);
}

}  // namespace drcell::rl
