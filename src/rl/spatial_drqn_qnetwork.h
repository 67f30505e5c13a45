// DRQN variant for metro-scale action spaces: both ends of the paper's
// network are factored through one *fixed* spatial feature matrix Φ
// instead of per-cell weight columns:
//
//   state_t  = g·(x_t · Φ)                 (trunk input, d ≪ cells)
//   Q(s, a)  = query(lstm(state)) · φ(a)   (head)
//
// where φ(a) = Φ.row(a) is a 2-D Fourier feature vector of cell a's grid
// position (all products of {1, cos(πk·u), sin(πk·u)} in each axis up to
// `fourier_k`, d = (2·fourier_k + 1)²), x_t is the t-th recent selection
// vector, and query(·) is a small learned dense map from the LSTM state.
// `DrqnQNetwork` needs gradient signal on every one of its m head columns
// and m LSTM input rows — at 10,000 cells a training run's transitions
// touch each a handful of times, far too few to learn either a placement
// policy or the grid geometry behind it. Here the geometry is supplied:
// the trunk sees each step's *coverage summary* (the mean Fourier feature
// of the selected cells — a smoothed density map of where sensing mass
// sits), every transition updates the whole query map, and the preference
// that matters at this tier ("score cells by how thinly their
// neighbourhood is covered") is a bilinear form of summary and φ(a). This
// is the standard action-embedding treatment for very large discrete
// action spaces; the trade-off — Q can only vary smoothly over the grid,
// no per-cell exceptions — is documented in docs/ARCHITECTURE.md.
//
// The fast-path contracts of the candidate machinery hold here too: the
// x·Φ trunk projection *is* the sparse gather-GEMM when the steps arrive
// as index lists (SparseRowMatrix::matmul_into, bit-identical to the
// dense kernel), and the column-restricted head evaluates q·φ(a) with the
// same ascending-k zero-skip recurrence the full q·Φᵀ kernel uses per
// element, so every evaluated entry is bit-identical to the full
// forward's.
#pragma once

#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/sequential.h"
#include "rl/qnetwork.h"

namespace drcell::rl {

class SpatialDrqnQNetwork final : public QNetwork {
 public:
  /// Cells are the row-major grid_w x grid_h grid (cell c at
  /// (c % grid_w, c / grid_w), matching data::SyntheticFieldGenerator).
  /// `fourier_k` controls the spatial resolution of the head
  /// (d = (2k+1)² features); `query_hidden` = 0 maps the LSTM state to the
  /// query directly, otherwise one ReLU hidden layer is inserted.
  SpatialDrqnQNetwork(std::size_t grid_w, std::size_t grid_h,
                      std::size_t history_steps, std::size_t lstm_hidden,
                      std::size_t fourier_k, std::size_t query_hidden,
                      Rng& rng);

  const Matrix& forward_batch(
      const std::vector<Matrix>& timestep_major_batch) override;
  void backward(const Matrix& grad_q) override;

  const Matrix& forward_batch_columns(
      const std::vector<SparseRowMatrix>& timestep_major_batch,
      const ActionColumns& columns) override;
  void backward_columns(const Matrix& grad_columns,
                        const ActionColumns& columns) override;
  std::vector<nn::Parameter*> parameters() override;
  std::unique_ptr<QNetwork> clone_architecture(Rng& rng) const override;
  std::size_t num_actions() const override { return grid_w_ * grid_h_; }
  std::size_t history_steps() const override { return history_steps_; }
  std::string name() const override { return "drqn-lstm-spatial"; }

  std::size_t feature_dims() const { return phi_.cols(); }
  /// The fixed feature matrix Φ ([cells x d]; tests).
  const Matrix& features() const { return phi_; }

 private:
  /// query(h) of the last forward (shared epilogue of the full and
  /// column-restricted paths).
  const Matrix& forward_query(const Matrix& trunk_out);
  /// g·(x_t · Φ) per step into proj_ws_ (g a fixed input gain). The
  /// sparse overload gathers over the stored ones — bit-identical to the
  /// dense projection.
  const std::vector<Matrix>& project(const std::vector<Matrix>& steps);
  const std::vector<Matrix>& project(
      const std::vector<SparseRowMatrix>& steps);

  std::size_t grid_w_, grid_h_;
  std::size_t history_steps_;
  std::size_t fourier_k_;
  std::size_t query_hidden_;
  nn::Lstm lstm_;
  nn::Sequential query_;
  Matrix phi_;         // [cells x d], fixed (not a Parameter)
  std::vector<Matrix> proj_ws_;  // [batch x d] per-step trunk inputs
  Matrix q_full_ws_;   // [batch x cells] full-head output
  Matrix q_cols_ws_;   // [batch x max_width] restricted-head output
  Matrix dquery_ws_;   // [batch x d] head-input gradient
};

}  // namespace drcell::rl
