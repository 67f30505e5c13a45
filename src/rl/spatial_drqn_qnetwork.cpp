#include "rl/spatial_drqn_qnetwork.h"

#include <algorithm>
#include <cmath>

#include "nn/activations.h"

namespace drcell::rl {

namespace {

/// Per-axis Fourier basis at normalised position u ∈ (0, 1):
/// [1, cos(π·1·u), sin(π·1·u), ..., cos(π·k·u), sin(π·k·u)].
void axis_basis(double u, std::size_t k, std::vector<double>& out) {
  out.clear();
  out.push_back(1.0);
  for (std::size_t f = 1; f <= k; ++f) {
    const double a = M_PI * static_cast<double>(f) * u;
    out.push_back(std::cos(a));
    out.push_back(std::sin(a));
  }
}

Matrix make_features(std::size_t grid_w, std::size_t grid_h,
                     std::size_t fourier_k) {
  const std::size_t axis = 2 * fourier_k + 1;
  Matrix phi(grid_w * grid_h, axis * axis);
  std::vector<double> bu, bv;
  for (std::size_t c = 0; c < grid_w * grid_h; ++c) {
    // Cell centres, matching the coords SyntheticFieldGenerator assigns.
    const double u = (static_cast<double>(c % grid_w) + 0.5) /
                     static_cast<double>(grid_w);
    const double v = (static_cast<double>(c / grid_w) + 0.5) /
                     static_cast<double>(grid_h);
    axis_basis(u, fourier_k, bu);
    axis_basis(v, fourier_k, bv);
    std::size_t j = 0;
    for (std::size_t y = 0; y < axis; ++y)
      for (std::size_t x = 0; x < axis; ++x) phi(c, j++) = bu[x] * bv[y];
  }
  return phi;
}

}  // namespace

SpatialDrqnQNetwork::SpatialDrqnQNetwork(std::size_t grid_w,
                                         std::size_t grid_h,
                                         std::size_t history_steps,
                                         std::size_t lstm_hidden,
                                         std::size_t fourier_k,
                                         std::size_t query_hidden, Rng& rng)
    : grid_w_(grid_w),
      grid_h_(grid_h),
      history_steps_(history_steps),
      fourier_k_(fourier_k),
      query_hidden_(query_hidden),
      lstm_((2 * fourier_k + 1) * (2 * fourier_k + 1), lstm_hidden, rng),
      phi_(make_features(grid_w, grid_h, fourier_k)) {
  DRCELL_CHECK(grid_w_ > 0 && grid_h_ > 0 && history_steps_ > 0);
  const std::size_t d = phi_.cols();
  if (query_hidden_ > 0) {
    query_.emplace<nn::Dense>(lstm_hidden, query_hidden_, rng);
    query_.emplace<nn::ReLU>();
    query_.emplace<nn::Dense>(query_hidden_, d, rng);
  } else {
    query_.emplace<nn::Dense>(lstm_hidden, d, rng);
  }
}

const Matrix& SpatialDrqnQNetwork::forward_query(const Matrix& trunk_out) {
  return query_.forward(trunk_out);
}

namespace {

/// Fixed input gain on the projected coverage sums. The summary must keep
/// its magnitude — feature 0 is the all-ones column of Φ, so it carries
/// the selection count, the within-cycle progress signal the value
/// estimate needs (per-step error reductions shrink sharply as a cycle
/// fills). A per-row mean-normalisation would erase it; a fixed scale
/// just keeps realistic counts inside the LSTM's well-conditioned input
/// range. Applied to the already-projected [batch x d] matrix,
/// identically after the dense and the sparse gather projection, so it
/// preserves their bit-identity.
constexpr double kInputGain = 1.0 / 32.0;

void scale_rows(Matrix& proj) {
  for (std::size_t r = 0; r < proj.rows(); ++r) {
    double* row = proj.row(r).data();
    for (std::size_t j = 0; j < proj.cols(); ++j) row[j] *= kInputGain;
  }
}

}  // namespace

const std::vector<Matrix>& SpatialDrqnQNetwork::project(
    const std::vector<Matrix>& steps) {
  proj_ws_.resize(steps.size());
  for (std::size_t t = 0; t < steps.size(); ++t) {
    steps[t].matmul_into(phi_, proj_ws_[t]);
    scale_rows(proj_ws_[t]);
  }
  return proj_ws_;
}

const std::vector<Matrix>& SpatialDrqnQNetwork::project(
    const std::vector<SparseRowMatrix>& steps) {
  proj_ws_.resize(steps.size());
  for (std::size_t t = 0; t < steps.size(); ++t) {
    steps[t].matmul_into(phi_, proj_ws_[t]);
    scale_rows(proj_ws_[t]);
  }
  return proj_ws_;
}

const Matrix& SpatialDrqnQNetwork::forward_batch(
    const std::vector<Matrix>& timestep_major_batch) {
  DRCELL_CHECK_MSG(timestep_major_batch.size() == history_steps_,
                   "sequence length mismatch");
  return full_head(
      forward_query(lstm_.forward(project(timestep_major_batch))));
}

const Matrix& SpatialDrqnQNetwork::forward_batch(
    const std::vector<SparseRowMatrix>& timestep_major_batch) {
  DRCELL_CHECK_MSG(timestep_major_batch.size() == history_steps_,
                   "sequence length mismatch");
  return full_head(
      forward_query(lstm_.forward(project(timestep_major_batch))));
}

const Matrix& SpatialDrqnQNetwork::full_head(const Matrix& q) {
  q.matmul_transposed_other_into(phi_, q_full_ws_);
  return q_full_ws_;
}

void SpatialDrqnQNetwork::backward(const Matrix& grad_q) {
  // dquery = grad_q · Φ; the matmul kernel skips zero gradient entries, so
  // a gradient that is zero off a few actions costs O(nonzero · d).
  grad_q.matmul_into(phi_, dquery_ws_);
  lstm_.backward(query_.backward(dquery_ws_));
}

const Matrix& SpatialDrqnQNetwork::forward_batch_columns(
    const std::vector<SparseRowMatrix>& timestep_major_batch,
    const ActionColumns& columns) {
  DRCELL_CHECK_MSG(timestep_major_batch.size() == history_steps_,
                   "sequence length mismatch");
  const Matrix& q = forward_query(lstm_.forward(project(timestep_major_batch)));
  DRCELL_CHECK_MSG(columns.size() == q.rows(),
                   "one column subset per batch row required");
  std::size_t max_width = 0;
  for (const auto& cols : columns)
    max_width = std::max(max_width, cols.size());
  DRCELL_CHECK_MSG(max_width > 0, "empty column subsets");
  q_cols_ws_.resize(q.rows(), max_width);
  const std::size_t d = phi_.cols();
  for (std::size_t r = 0; r < q.rows(); ++r) {
    const double* qr = q.row(r).data();
    double* orow = q_cols_ws_.row(r).data();
    const auto& cols = columns[r];
    for (std::size_t j = 0; j < cols.size(); ++j) {
      DRCELL_DCHECK_MSG(cols[j] < phi_.rows(), "candidate out of range");
      const double* frow = phi_.row(cols[j]).data();
      // Same per-element recurrence as matmul_transposed_other_into:
      // single accumulator, k ascending, q(r, k) == 0.0 skipped — so each
      // evaluated entry is bit-identical to the full q·Φᵀ entry.
      double acc = 0.0;
      for (std::size_t k = 0; k < d; ++k) {
        const double v = qr[k];
        if (v == 0.0) continue;
        acc += v * frow[k];
      }
      orow[j] = acc;
    }
  }
  return q_cols_ws_;
}

void SpatialDrqnQNetwork::backward_columns(const Matrix& grad_columns,
                                           const ActionColumns& columns) {
  DRCELL_CHECK_MSG(columns.size() == grad_columns.rows(),
                   "one column subset per batch row required");
  // dquery(r, :) = Σ_j grad(r, j) · φ(columns[r][j]) over ascending
  // candidate ids with zero grads skipped — exactly the terms (in exactly
  // the order) the full backward's grad_q · Φ accumulates for row r, since
  // the full grad is zero off the listed columns.
  dquery_ws_.resize_overwrite(grad_columns.rows(), phi_.cols());
  const std::size_t d = phi_.cols();
  for (std::size_t r = 0; r < grad_columns.rows(); ++r) {
    const double* gr = grad_columns.row(r).data();
    double* dq = dquery_ws_.row(r).data();
    for (std::size_t k = 0; k < d; ++k) dq[k] = 0.0;
    const auto& cols = columns[r];
    DRCELL_CHECK_MSG(cols.size() <= grad_columns.cols(),
                     "column subset wider than gradient");
    for (std::size_t j = 0; j < cols.size(); ++j) {
      const double g = gr[j];
      if (g == 0.0) continue;
      const double* frow = phi_.row(cols[j]).data();
      for (std::size_t k = 0; k < d; ++k) dq[k] += g * frow[k];
    }
  }
  lstm_.backward(query_.backward(dquery_ws_));
}

std::vector<nn::Parameter*> SpatialDrqnQNetwork::parameters() {
  auto ps = lstm_.parameters();
  const auto qs = query_.parameters();
  ps.insert(ps.end(), qs.begin(), qs.end());
  return ps;
}

std::unique_ptr<QNetwork> SpatialDrqnQNetwork::clone_architecture(
    Rng& rng) const {
  return std::make_unique<SpatialDrqnQNetwork>(grid_w_, grid_h_,
                                               history_steps_,
                                               lstm_.hidden_size(), fourier_k_,
                                               query_hidden_, rng);
}

}  // namespace drcell::rl
