#include "nn/dense.h"

#include <algorithm>

#include "nn/init.h"

namespace drcell::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : w_(in_features, out_features), b_(1, out_features) {
  DRCELL_CHECK(in_features > 0 && out_features > 0);
  xavier_uniform(w_.mutable_value(), in_features, out_features, rng);
}

const Matrix& Dense::forward(const Matrix& input) {
  DRCELL_CHECK_MSG(input.cols() == w_.value().rows(),
                   "Dense: input feature mismatch");
  cached_input_ = input;
  // Multiply from the cached copy: `input` may alias this layer's own
  // workspace when a caller feeds a previous result straight back in.
  cached_input_.matmul_into(w_.value(), out_ws_);
  for (std::size_t r = 0; r < out_ws_.rows(); ++r)
    for (std::size_t c = 0; c < out_ws_.cols(); ++c)
      out_ws_(r, c) += b_.value()(0, c);
  return out_ws_;
}

const Matrix& Dense::backward(const Matrix& grad_output) {
  DRCELL_CHECK_MSG(grad_output.rows() == cached_input_.rows() &&
                       grad_output.cols() == w_.value().cols(),
                   "Dense: backward shape mismatch");
  // dW += xᵀ g, db += colsum(g), dx = g Wᵀ. Parameter gradients accumulate
  // in ascending batch-row order (the batched-vs-per-sample bit-identity
  // contract); dx avoids materialising Wᵀ.
  cached_input_.matmul_transposed_self_add(grad_output, w_.grad);
  for (std::size_t r = 0; r < grad_output.rows(); ++r)
    for (std::size_t c = 0; c < grad_output.cols(); ++c)
      b_.grad(0, c) += grad_output(r, c);
  grad_output.matmul_transposed_other_into(w_.value(), grad_in_ws_);
  return grad_in_ws_;
}

const Matrix& Dense::forward_columns(const Matrix& input,
                                     const ColumnSubsets& columns) {
  DRCELL_CHECK_MSG(input.cols() == w_.value().rows(),
                   "Dense: input feature mismatch");
  DRCELL_CHECK_MSG(columns.size() == input.rows(),
                   "Dense: one column subset per batch row required");
  cached_input_ = input;
  std::size_t max_width = 0;
  for (const auto& cols : columns)
    max_width = std::max(max_width, cols.size());
  DRCELL_CHECK_MSG(max_width > 0, "Dense: empty column subsets");
  // Zero-filled: the accumulators, and the padding past each row's width.
  out_cols_ws_.resize(input.rows(), max_width);
  const std::size_t in = w_.value().rows();
  const std::size_t out = w_.value().cols();
  const double* w = w_.value().data().data();
  const double* bias = b_.value().data().data();
  for (std::size_t r = 0; r < input.rows(); ++r) {
    const double* xr = cached_input_.row(r).data();
    double* orow = out_cols_ws_.row(r).data();
    const std::uint32_t* cols = columns[r].data();
    const std::size_t width = columns[r].size();
    for (std::size_t j = 0; j < width; ++j)
      DRCELL_DCHECK_MSG(cols[j] < out, "Dense: column out of range");
    // W is walked row by row (k outer, contiguous reads) with the listed
    // columns inner. Each output element still sees the dense GEMM's
    // recurrence — k ascending, zero inputs skipped, bias added last — so
    // it is bit-identical to the full forward's entry.
    for (std::size_t k = 0; k < in; ++k) {
      const double v = xr[k];
      if (v == 0.0) continue;
      const double* wk = w + k * out;
      for (std::size_t j = 0; j < width; ++j) orow[j] += v * wk[cols[j]];
    }
    for (std::size_t j = 0; j < width; ++j) orow[j] += bias[cols[j]];
  }
  return out_cols_ws_;
}

const Matrix& Dense::backward_columns(const Matrix& grad_columns,
                                      const ColumnSubsets& columns) {
  DRCELL_CHECK_MSG(grad_columns.rows() == cached_input_.rows(),
                   "Dense: backward_columns batch mismatch");
  DRCELL_CHECK_MSG(columns.size() == grad_columns.rows(),
                   "Dense: one column subset per batch row required");
  const std::size_t in = w_.value().rows();
  // dW += xᵀ g restricted to the listed columns, batch rows ascending and
  // features ascending with x == 0.0 skipped — the dense
  // matmul_transposed_self_add order with the off-subset (zero) terms
  // dropped.
  for (std::size_t r = 0; r < grad_columns.rows(); ++r) {
    const double* xr = cached_input_.row(r).data();
    const double* gr = grad_columns.row(r).data();
    const auto& cols = columns[r];
    DRCELL_CHECK_MSG(cols.size() <= grad_columns.cols(),
                     "Dense: column subset wider than gradient");
    for (std::size_t k = 0; k < in; ++k) {
      const double v = xr[k];
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < cols.size(); ++j)
        w_.grad(k, cols[j]) += v * gr[j];
    }
    for (std::size_t j = 0; j < cols.size(); ++j)
      b_.grad(0, cols[j]) += gr[j];
  }
  // dx(r, f) = Σ_j g(r, j)·W(f, columns[r][j]) over ascending columns with
  // g == 0.0 skipped — the matmul_transposed_other_into element recurrence
  // once the off-subset zeros are dropped.
  grad_in_ws_.resize_overwrite(grad_columns.rows(), in);
  for (std::size_t r = 0; r < grad_columns.rows(); ++r) {
    const double* gr = grad_columns.row(r).data();
    double* dxr = grad_in_ws_.row(r).data();
    const auto& cols = columns[r];
    for (std::size_t f = 0; f < in; ++f) {
      double acc = 0.0;
      for (std::size_t j = 0; j < cols.size(); ++j) {
        const double g = gr[j];
        if (g == 0.0) continue;
        acc += g * w_.value()(f, cols[j]);
      }
      dxr[f] = acc;
    }
  }
  return grad_in_ws_;
}

}  // namespace drcell::nn
