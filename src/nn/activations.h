// The ReLU layer and the scalar activation functions the LSTM cell's
// reference path reuses (the production gate pass runs the fastmath array
// kernels of util/fastmath.h instead).
#pragma once

#include "nn/layer.h"

namespace drcell::nn {

/// Scalar std::-based sigmoid (numerically stable in both tails) — the
/// reference-path form; the fused LSTM gate pass uses fastmath instead.
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

}  // namespace drcell::nn
