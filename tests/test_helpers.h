// Shared fixtures for the drcell test suite: tiny deterministic sensing
// tasks that keep end-to-end tests fast, plus the small matrix builders and
// the plain MSE oracle the layer tests share.
#pragma once

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>

#include "cs/matrix_completion.h"
#include "data/synthetic_field.h"
#include "linalg/sparse_matrix.h"
#include "mcs/environment.h"
#include "mcs/sensing_task.h"
#include "mcs/state_encoder.h"
#include "nn/loss.h"

namespace drcell::testing {

/// Row-major matrix literal, e.g. make_matrix({{1, 2}, {3, 4}}). Every row
/// must have the same length.
inline Matrix make_matrix(
    std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m(rows.size(), rows.size() == 0 ? 0 : rows.begin()->size());
  std::size_t r = 0;
  for (const auto& row : rows) {
    DRCELL_CHECK_MSG(row.size() == m.cols(), "ragged matrix literal");
    std::copy(row.begin(), row.end(), m.row(r++).begin());
  }
  return m;
}

/// Selections in the whole matrix: the per-cycle lists summed.
inline std::size_t total_selected(const mcs::SelectionMatrix& s) {
  std::size_t total = 0;
  for (std::size_t t = 0; t < s.cycles(); ++t)
    total += s.selected_cells_in_cycle(t).size();
  return total;
}

/// The densified copy of a sparse matrix.
inline Matrix to_dense(const SparseRowMatrix& s) {
  Matrix out;
  s.to_dense(out);
  return out;
}

/// Splits flat states into the k dense per-step [batch x cells] matrices
/// the networks' dense forward_batch takes, state b as row b of each step:
/// the dense oracle input the sparse selection steps are checked against.
inline std::vector<Matrix> to_sequence_batch(
    const mcs::StateEncoder& encoder,
    const std::vector<const std::vector<double>*>& flat_states) {
  DRCELL_CHECK(!flat_states.empty());
  const std::size_t cells = encoder.cells(), k = encoder.history_cycles();
  std::vector<Matrix> steps(k, Matrix(flat_states.size(), cells));
  for (std::size_t b = 0; b < flat_states.size(); ++b) {
    const auto& flat = *flat_states[b];
    DRCELL_CHECK_MSG(flat.size() == encoder.state_size(),
                     "flat state size mismatch");
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t cell = 0; cell < cells; ++cell)
        steps[j](b, cell) = flat[j * cells + cell];
  }
  return steps;
}

/// Unmasked mean squared error mean((pred - target)²) and its gradient:
/// the smooth loss the layer, LSTM and gradient-check tests train against.
inline nn::LossResult mse_loss(const Matrix& pred, const Matrix& target) {
  DRCELL_CHECK_MSG(pred.rows() == target.rows() && pred.cols() == target.cols(),
                   "loss shape mismatch");
  nn::LossResult out;
  out.grad = Matrix(pred.rows(), pred.cols());
  out.normalizer = static_cast<double>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred.data()[i] - target.data()[i];
    out.raw_sum += d * d;
    out.grad.data()[i] = 2.0 * d / out.normalizer;
  }
  out.value = out.raw_sum / out.normalizer;
  return out;
}

/// A smooth, strongly structured toy task: value = base(cell) + wave(cycle),
/// exactly rank-2 plus mean, so matrix completion recovers it from few
/// observations. Cells sit on a tiny grid.
inline mcs::SensingTask make_toy_task(std::size_t cells = 6,
                                      std::size_t cycles = 24,
                                      double noise = 0.0,
                                      std::uint64_t seed = 5) {
  std::vector<cs::CellCoord> coords;
  for (std::size_t i = 0; i < cells; ++i)
    coords.push_back({static_cast<double>(i % 3) * 10.0,
                      static_cast<double>(i / 3) * 10.0});
  Matrix truth(cells, cycles);
  Rng rng(seed);
  for (std::size_t i = 0; i < cells; ++i) {
    const double base = 20.0 + 0.5 * static_cast<double>(i);
    for (std::size_t t = 0; t < cycles; ++t) {
      const double wave =
          2.0 * std::sin(2.0 * 3.14159265 * static_cast<double>(t) / 12.0);
      truth(i, t) = base + wave + (noise > 0.0 ? rng.normal(0.0, noise) : 0.0);
    }
  }
  return mcs::SensingTask("toy", std::move(truth), std::move(coords),
                          mcs::ErrorMetric::mae(), 1.0);
}

/// A GP-generated task, small enough for integration tests.
inline mcs::SensingTask make_gp_task(std::size_t side = 3,
                                     std::size_t cycles = 48,
                                     std::uint64_t seed = 11) {
  auto coords = data::grid_coords(side, side, 10.0, 10.0);
  data::SyntheticFieldGenerator gen(coords);
  data::FieldParams params;
  params.mean = 15.0;
  params.stddev = 2.0;
  params.spatial_length = 18.0;
  params.temporal_ar1 = 0.9;
  params.diurnal_amplitude = 1.0;
  params.cycles_per_day = 24.0;
  // Keep the latent rank low relative to the tiny cell count so rank-3
  // completion is well-specified.
  params.num_modes = 2;
  Rng rng(seed);
  Matrix field = gen.generate(params, cycles, rng);
  return mcs::SensingTask("gp-toy", std::move(field), std::move(coords),
                          mcs::ErrorMetric::mae(), 1.0);
}

/// The window shape the metro training workload infers on: every cycle of
/// `truth` but the last fully observed, and the last (current) cycle sensed
/// at `sensed` distinct strided cells. The stride 43 must be coprime to the
/// cell count.
inline cs::PartialMatrix make_metro_training_window(const Matrix& truth,
                                                   std::size_t sensed) {
  const std::size_t cells = truth.rows(), current = truth.cols() - 1;
  cs::PartialMatrix window(cells, truth.cols());
  for (std::size_t c = 0; c < current; ++c)
    for (std::size_t r = 0; r < cells; ++r) window.set(r, c, truth(r, c));
  for (std::size_t k = 0; k < sensed; ++k) {
    const std::size_t cell = (11 + 43 * k) % cells;
    window.set(cell, current, truth(cell, current));
  }
  return window;
}

/// The 12-cycle window the serving workload's LOO gate fits at campaign
/// cycle `cycle`. The first 12 columns of `truth` are the warm-start
/// cycles, fully observed; the campaign cycles follow. Each campaign cycle
/// before `cycle` is sensed at 64 strided cells and `cycle` itself at
/// `newest`. The picks depend only on the absolute cycle, so the window at
/// cycle k + 1 is the window at cycle k slid by one cycle. The stride 31
/// must be coprime to the cell count.
inline cs::PartialMatrix make_serving_window(const Matrix& truth,
                                             std::size_t cycle,
                                             std::size_t newest) {
  constexpr std::size_t kWidth = 12, kWarm = 12, kSensed = 64;
  const std::size_t cells = truth.rows(), last = kWarm + cycle;
  DRCELL_CHECK_MSG(last < truth.cols(), "truth ends before the cycle");
  cs::PartialMatrix window(cells, kWidth);
  for (std::size_t c = 0; c < kWidth; ++c) {
    const std::size_t t = last + 1 + c - kWidth;
    if (t < kWarm) {
      for (std::size_t r = 0; r < cells; ++r) window.set(r, c, truth(r, t));
      continue;
    }
    for (std::size_t k = 0; k < (t == last ? newest : kSensed); ++k) {
      const std::size_t cell = (7 + 17 * t + 31 * k) % cells;
      window.set(cell, c, truth(cell, t));
    }
  }
  return window;
}

inline cs::InferenceEnginePtr default_engine() {
  // The toy/GP tasks are rank-2/3 plus mean; a low-rank engine avoids
  // overfitting their tiny windows.
  cs::MatrixCompletionOptions options;
  options.rank = 3;
  return std::make_shared<cs::MatrixCompletion>(options);
}

inline mcs::SparseMcsEnvironment make_toy_environment(
    std::shared_ptr<const mcs::SensingTask> task, double epsilon,
    mcs::EnvOptions options = {}) {
  return mcs::SparseMcsEnvironment(
      std::move(task), default_engine(),
      std::make_shared<mcs::GroundTruthGate>(epsilon), options);
}

}  // namespace drcell::testing
