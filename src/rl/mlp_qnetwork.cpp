#include "rl/mlp_qnetwork.h"

#include "nn/activations.h"
#include "nn/dense.h"

namespace drcell::rl {

MlpQNetwork::MlpQNetwork(std::size_t num_cells, std::size_t history_steps,
                         std::vector<std::size_t> hidden_sizes, Rng& rng)
    : num_cells_(num_cells),
      history_steps_(history_steps),
      hidden_sizes_(std::move(hidden_sizes)) {
  DRCELL_CHECK(num_cells_ > 0 && history_steps_ > 0);
  std::size_t in = num_cells_ * history_steps_;
  for (std::size_t h : hidden_sizes_) {
    DRCELL_CHECK(h > 0);
    net_.emplace<nn::Dense>(in, h, rng);
    net_.emplace<nn::ReLU>();
    in = h;
  }
  net_.emplace<nn::Dense>(in, num_cells_, rng);
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

const Matrix& MlpQNetwork::forward_batch(
    const std::vector<Matrix>& timestep_major_batch) {
  return net_.forward(flatten(timestep_major_batch));
}

const Matrix& MlpQNetwork::forward_batch_sparse(
    const std::vector<SparseRowMatrix>& timestep_major_batch) {
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
  return net_.forward(flat_ws_);
}

void MlpQNetwork::backward(const Matrix& grad_q) { net_.backward(grad_q); }

Matrix MlpQNetwork::forward_reference(const std::vector<Matrix>& sequence) {
  // Pre-refactor behaviour: the flattened window is a fresh allocation per
  // call, and every layer allocates its output.
  Matrix flat = flatten(sequence);
  return net_.forward_reference(flat);
}

void MlpQNetwork::backward_reference(const Matrix& grad_q) {
  (void)net_.backward_reference(grad_q);
}

std::vector<nn::Parameter*> MlpQNetwork::parameters() {
  return net_.parameters();
}

std::unique_ptr<QNetwork> MlpQNetwork::clone_architecture(Rng& rng) const {
  return std::make_unique<MlpQNetwork>(num_cells_, history_steps_,
                                       hidden_sizes_, rng);
}

}  // namespace drcell::rl
