// Fully-connected layer: y = x W + b.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "util/rng.h"

namespace drcell::nn {

/// Per-batch-row output-column subsets for the candidate-restricted head
/// ops below: columns[i] lists the (strictly ascending) output units row i
/// evaluates.
using ColumnSubsets = std::vector<std::vector<std::uint32_t>>;

class Dense : public Layer {
 public:
  /// Xavier-initialised in_features x out_features layer.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  const Matrix& forward(const Matrix& input) override;
  const Matrix& backward(const Matrix& grad_output) override;

  /// Candidate-restricted forward: out(i, j) = x_i · W[:, columns[i][j]] +
  /// b[columns[i][j]], evaluating only the listed output units per row.
  /// Returns a [batch x max_width] workspace — row i's entries past
  /// columns[i].size() are zeroed padding. Each output element accumulates
  /// over k ascending with x(i,k) == 0.0 skipped, exactly as the dense
  /// GEMM computes that element, so every evaluated entry is bit-identical
  /// to the corresponding full-forward entry. Caches the input for
  /// backward_columns.
  const Matrix& forward_columns(const Matrix& input,
                                const ColumnSubsets& columns);

  /// Backward of forward_columns: `grad_columns` is shaped like its output
  /// (entries past columns[i].size() ignored). Accumulates dW/db only at
  /// the listed columns and returns dx ([batch x in]). Accumulation orders
  /// replicate the dense kernels' (batch rows ascending; within a row the
  /// dense kernels' zero-skips), so from equal seeds a candidate-restricted
  /// update is bit-identical to a full update whose grad is zero off the
  /// listed columns.
  const Matrix& backward_columns(const Matrix& grad_columns,
                                 const ColumnSubsets& columns);
  std::vector<Parameter*> parameters() override { return {&w_, &b_}; }
  std::string name() const override { return "Dense"; }

  std::size_t in_features() const { return w_.value().rows(); }
  std::size_t out_features() const { return w_.value().cols(); }

  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

 private:
  Parameter w_;  // in x out
  Parameter b_;  // 1 x out
  Matrix cached_input_;
  // Batch-sized product workspaces recycled across calls via matmul_into.
  Matrix out_ws_;      // forward output
  Matrix grad_in_ws_;  // backward input-gradient
  Matrix out_cols_ws_;  // forward_columns output
};

}  // namespace drcell::nn
