// Element-wise activation layers and the scalar activation functions the
// LSTM cell's reference path reuses.
//
// Tanh/Sigmoid run their forward and backward passes through the fastmath
// array kernels (util/fastmath.h). Numeric-divergence contract: fastmath
// matches std:: within 1e-12 relative on [-40, 40] (measured ≲ 1e-15 —
// tests/fastmath_test.cpp), so outputs differ from the retained std::-based
// reference path (forward_reference/backward_reference) at the last bits.
// See docs/ARCHITECTURE.md ("Fastmath and the fused LSTM gate kernel").
#pragma once

#include "nn/layer.h"

namespace drcell::nn {

/// Scalar std::-based sigmoid (numerically stable in both tails) — the
/// reference-path form; the production layers use fastmath::sigmoid.
double sigmoid(double x);
double dsigmoid_from_output(double y);  // y = sigmoid(x) -> y(1-y)
double dtanh_from_output(double y);     // y = tanh(x)    -> 1-y²

class ReLU : public Layer {
 public:
  const Matrix& forward(const Matrix& input) override;
  const Matrix& backward(const Matrix& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Matrix cached_input_;
  Matrix out_ws_;
  Matrix grad_in_ws_;
};

class Tanh : public Layer {
 public:
  const Matrix& forward(const Matrix& input) override;
  const Matrix& backward(const Matrix& grad_output) override;
  /// The pre-fastmath std::tanh path (diverges from forward() by the
  /// documented ≤1e-12 relative bound, unlike the bit-identical default
  /// reference delegation of the other layers).
  Matrix forward_reference(const Matrix& input) override;
  Matrix backward_reference(const Matrix& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  Matrix cached_output_;
  Matrix grad_in_ws_;
};

class Sigmoid : public Layer {
 public:
  const Matrix& forward(const Matrix& input) override;
  const Matrix& backward(const Matrix& grad_output) override;
  /// The pre-fastmath nn::sigmoid path (same divergence contract as Tanh).
  Matrix forward_reference(const Matrix& input) override;
  Matrix backward_reference(const Matrix& grad_output) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  Matrix cached_output_;
  Matrix grad_in_ws_;
};

}  // namespace drcell::nn
