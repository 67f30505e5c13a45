// Core abstractions of the drcell neural-network library: trainable
// parameters and the feed-forward Layer interface.
//
// The library is deliberately layer-based with explicit forward/backward
// (no general autograd): the paper's networks are a dense MLP (DQN) and an
// LSTM + dense head (DRQN), both of which map cleanly onto this design
// while keeping every gradient auditable and finite-difference-checkable.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace drcell::nn {

/// A trainable tensor together with its accumulated gradient.
struct Parameter {
  Parameter() = default;
  Parameter(std::size_t rows, std::size_t cols)
      : value(rows, cols), grad(rows, cols) {}

  // resize() reuses the gradient's storage (data_.assign on warm capacity),
  // so a steady-state zero_grad is a fill, not a fresh allocation — at the
  // metro tier the gradients alone are ~25 MB per network.
  void zero_grad() { grad.resize(value.rows(), value.cols(), 0.0); }

  Matrix value;
  Matrix grad;
};

/// Feed-forward layer operating on batch-major matrices (batch x features).
///
/// forward() caches whatever backward() needs; backward() consumes the
/// gradient w.r.t. the layer output, accumulates parameter gradients and
/// returns the gradient w.r.t. the layer input. One backward per forward.
///
/// Both calls return references into layer-owned workspaces (valid until the
/// next forward()/backward() on the same layer), so a steady-state training
/// loop allocates nothing per step. Copy the result to keep it.
///
/// Batched determinism contract: every layer computes output row b of a
/// [batch x features] input exactly as it would compute the single row of a
/// [1 x features] input — same dot products, same addition order — and
/// backward() accumulates parameter gradients in ascending batch-row order.
/// Batched training is therefore bit-identical to a per-sample loop (from
/// zeroed gradients) of the same calls at B = 1 — the oracle
/// DqnTrainer::train_step_reference runs; tests/batched_training_test.cpp
/// enforces this.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual const Matrix& forward(const Matrix& input) = 0;
  virtual const Matrix& backward(const Matrix& grad_output) = 0;

  /// Trainable parameters (empty for activations).
  virtual std::vector<Parameter*> parameters() { return {}; }
  virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Collects parameters from several parameter-owning objects.
template <typename... Owners>
std::vector<Parameter*> collect_parameters(Owners&... owners) {
  std::vector<Parameter*> all;
  (
      [&] {
        auto ps = owners.parameters();
        all.insert(all.end(), ps.begin(), ps.end());
      }(),
      ...);
  return all;
}

}  // namespace drcell::nn
