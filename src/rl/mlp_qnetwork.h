// Dense (non-recurrent) Q-network: the k-step state window is flattened and
// fed through an MLP. The Sec. 4.3 strawman that the DRQN is compared
// against in the network-architecture ablation.
#pragma once

#include "nn/dense.h"
#include "nn/sequential.h"
#include "rl/qnetwork.h"

namespace drcell::rl {

class MlpQNetwork final : public QNetwork {
 public:
  /// history_steps * num_cells inputs -> hidden ReLU layers -> num_cells.
  MlpQNetwork(std::size_t num_cells, std::size_t history_steps,
              std::vector<std::size_t> hidden_sizes, Rng& rng);

  const Matrix& forward_batch(
      const std::vector<Matrix>& timestep_major_batch) override;
  /// scatter(), the hidden stack and the full-width output layer.
  const Matrix& forward_batch(
      const std::vector<SparseRowMatrix>& timestep_major_batch) override;
  void backward(const Matrix& grad_q) override;
  /// scatter(), the hidden stack and the output layer evaluated only at
  /// the listed columns.
  const Matrix& forward_batch_columns(
      const std::vector<SparseRowMatrix>& timestep_major_batch,
      const ActionColumns& columns) override;
  void backward_columns(const Matrix& grad_columns,
                        const ActionColumns& columns) override;
  std::vector<nn::Parameter*> parameters() override;
  std::unique_ptr<QNetwork> clone_architecture(Rng& rng) const override;
  std::size_t num_actions() const override { return num_cells_; }
  std::size_t history_steps() const override { return history_steps_; }
  std::string name() const override { return "dqn-mlp"; }

 private:
  const Matrix& flatten(const std::vector<Matrix>& sequence);
  /// Scatters sparse steps into the flat window — the same matrix
  /// flatten() builds from the densified steps.
  const Matrix& scatter(const std::vector<SparseRowMatrix>& sequence);
  /// The hidden stack's output, or the flat window itself when there are
  /// no hidden layers.
  const Matrix& hidden_forward(const Matrix& flat);
  void hidden_backward(const Matrix& grad_hidden);

  std::size_t num_cells_;
  std::size_t history_steps_;
  std::vector<std::size_t> hidden_sizes_;
  // Declared (so drawn) before head_: the Xavier draw order and the
  // parameters() order are the hidden layers', then the head's.
  nn::Sequential hidden_;
  nn::Dense head_;
  Matrix flat_ws_;  // [batch x k·m] flattened window, reused across calls
};

}  // namespace drcell::rl
