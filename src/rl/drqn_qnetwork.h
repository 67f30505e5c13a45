// The paper's Deep Recurrent Q-Network (Sec. 4.3, Eq. 8): an LSTM consumes
// the k recent selection vectors step by step; its final hidden state is
// mapped by one dense output layer to one Q-value per cell.
#pragma once

#include "nn/dense.h"
#include "nn/lstm.h"
#include "rl/qnetwork.h"

namespace drcell::rl {

class DrqnQNetwork final : public QNetwork {
 public:
  DrqnQNetwork(std::size_t num_cells, std::size_t history_steps,
               std::size_t lstm_hidden, Rng& rng);

  const Matrix& forward_batch(
      const std::vector<Matrix>& timestep_major_batch) override;
  /// Gather-GEMM LSTM input (densified at or above
  /// nn::Lstm::kSparseGatherMaxDensity) and the full-width GEMM head.
  const Matrix& forward_batch(
      const std::vector<SparseRowMatrix>& timestep_major_batch) override;
  void backward(const Matrix& grad_q) override;

  /// The training pair: gather-GEMM LSTM input (bit-identical to the
  /// dense forward — see nn/lstm.h) and the column-restricted Q head (the
  /// output Dense evaluated only at each sample's listed columns).
  const Matrix& forward_batch_columns(
      const std::vector<SparseRowMatrix>& timestep_major_batch,
      const ActionColumns& columns) override;
  void backward_columns(const Matrix& grad_columns,
                        const ActionColumns& columns) override;
  std::vector<nn::Parameter*> parameters() override;
  std::unique_ptr<QNetwork> clone_architecture(Rng& rng) const override;
  std::size_t num_actions() const override { return num_cells_; }
  std::size_t history_steps() const override { return history_steps_; }
  std::string name() const override { return "drqn-lstm"; }

 private:
  std::size_t num_cells_;
  std::size_t history_steps_;
  nn::Lstm lstm_;
  nn::Dense head_;
};

}  // namespace drcell::rl
