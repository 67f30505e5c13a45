#include "rl/drqn_qnetwork.h"

namespace drcell::rl {

DrqnQNetwork::DrqnQNetwork(std::size_t num_cells, std::size_t history_steps,
                           std::size_t lstm_hidden, Rng& rng)
    : num_cells_(num_cells),
      history_steps_(history_steps),
      lstm_(num_cells, lstm_hidden, rng),
      head_(lstm_hidden, num_cells, rng) {
  DRCELL_CHECK(num_cells_ > 0 && history_steps_ > 0);
}

const Matrix& DrqnQNetwork::forward_batch(
    const std::vector<Matrix>& timestep_major_batch) {
  DRCELL_CHECK_MSG(timestep_major_batch.size() == history_steps_,
                   "sequence length mismatch");
  return head_.forward(lstm_.forward(timestep_major_batch));
}

void DrqnQNetwork::backward(const Matrix& grad_q) {
  lstm_.backward(head_.backward(grad_q));
}

const Matrix& DrqnQNetwork::forward_batch_columns(
    const std::vector<SparseRowMatrix>& timestep_major_batch,
    const ActionColumns& columns) {
  DRCELL_CHECK_MSG(timestep_major_batch.size() == history_steps_,
                   "sequence length mismatch");
  // Only the m-wide output projection is restricted to the listed
  // columns; the LSTM runs in full.
  return head_.forward_columns(lstm_.forward(timestep_major_batch), columns);
}

void DrqnQNetwork::backward_columns(const Matrix& grad_columns,
                                    const ActionColumns& columns) {
  lstm_.backward(head_.backward_columns(grad_columns, columns));
}

std::vector<nn::Parameter*> DrqnQNetwork::parameters() {
  auto ps = lstm_.parameters();
  const auto head_ps = head_.parameters();
  ps.insert(ps.end(), head_ps.begin(), head_ps.end());
  return ps;
}

std::unique_ptr<QNetwork> DrqnQNetwork::clone_architecture(Rng& rng) const {
  return std::make_unique<DrqnQNetwork>(num_cells_, history_steps_,
                                        lstm_.hidden_size(), rng);
}

}  // namespace drcell::rl
