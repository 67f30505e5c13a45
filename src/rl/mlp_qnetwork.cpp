#include "rl/mlp_qnetwork.h"

#include "nn/activations.h"

namespace drcell::rl {

namespace {

/// The hidden Dense + ReLU layers, drawn in order from `rng`.
nn::Sequential make_hidden(std::size_t in,
                           const std::vector<std::size_t>& hidden_sizes,
                           Rng& rng) {
  nn::Sequential hidden;
  for (std::size_t h : hidden_sizes) {
    DRCELL_CHECK(h > 0);
    hidden.emplace<nn::Dense>(in, h, rng);
    hidden.emplace<nn::ReLU>();
    in = h;
  }
  return hidden;
}

}  // namespace

MlpQNetwork::MlpQNetwork(std::size_t num_cells, std::size_t history_steps,
                         std::vector<std::size_t> hidden_sizes, Rng& rng)
    : num_cells_(num_cells),
      history_steps_(history_steps),
      hidden_sizes_(std::move(hidden_sizes)),
      hidden_(make_hidden(num_cells * history_steps, hidden_sizes_, rng)),
      head_(hidden_sizes_.empty() ? num_cells * history_steps
                                  : hidden_sizes_.back(),
            num_cells, rng) {
  DRCELL_CHECK(num_cells_ > 0 && history_steps_ > 0);
}

const Matrix& MlpQNetwork::flatten(const std::vector<Matrix>& sequence) {
  DRCELL_CHECK_MSG(sequence.size() == history_steps_,
                   "sequence length mismatch");
  const std::size_t batch = sequence.front().rows();
  flat_ws_.resize_overwrite(batch, num_cells_ * history_steps_);
  for (std::size_t t = 0; t < history_steps_; ++t) {
    const Matrix& step = sequence[t];
    DRCELL_CHECK(step.rows() == batch && step.cols() == num_cells_);
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t c = 0; c < num_cells_; ++c)
        flat_ws_(b, t * num_cells_ + c) = step(b, c);
  }
  return flat_ws_;
}

const Matrix& MlpQNetwork::hidden_forward(const Matrix& flat) {
  return hidden_.layer_count() > 0 ? hidden_.forward(flat) : flat;
}

void MlpQNetwork::hidden_backward(const Matrix& grad_hidden) {
  if (hidden_.layer_count() > 0) (void)hidden_.backward(grad_hidden);
}

const Matrix& MlpQNetwork::forward_batch(
    const std::vector<Matrix>& timestep_major_batch) {
  return head_.forward(hidden_forward(flatten(timestep_major_batch)));
}

void MlpQNetwork::backward(const Matrix& grad_q) {
  hidden_backward(head_.backward(grad_q));
}

const Matrix& MlpQNetwork::forward_batch_columns(
    const std::vector<SparseRowMatrix>& timestep_major_batch,
    const ActionColumns& columns) {
  DRCELL_CHECK_MSG(timestep_major_batch.size() == history_steps_,
                   "sequence length mismatch");
  const std::size_t batch = timestep_major_batch.front().rows();
  flat_ws_.resize(batch, num_cells_ * history_steps_);
  for (std::size_t t = 0; t < history_steps_; ++t) {
    const SparseRowMatrix& step = timestep_major_batch[t];
    DRCELL_CHECK(step.rows() == batch && step.cols() == num_cells_);
    for (std::size_t b = 0; b < batch; ++b) {
      const auto cols = step.row_indices(b);
      const auto vals = step.row_values(b);
      for (std::size_t e = 0; e < cols.size(); ++e)
        flat_ws_(b, t * num_cells_ + cols[e]) = vals[e];
    }
  }
  return head_.forward_columns(hidden_forward(flat_ws_), columns);
}

void MlpQNetwork::backward_columns(const Matrix& grad_columns,
                                   const ActionColumns& columns) {
  hidden_backward(head_.backward_columns(grad_columns, columns));
}

std::vector<nn::Parameter*> MlpQNetwork::parameters() {
  auto ps = hidden_.parameters();
  const auto head_ps = head_.parameters();
  ps.insert(ps.end(), head_ps.begin(), head_ps.end());
  return ps;
}

std::unique_ptr<QNetwork> MlpQNetwork::clone_architecture(Rng& rng) const {
  return std::make_unique<MlpQNetwork>(num_cells_, history_steps_,
                                       hidden_sizes_, rng);
}

}  // namespace drcell::rl
