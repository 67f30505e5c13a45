#include "nn/activations.h"

#include <cmath>

namespace drcell::nn {

double sigmoid(double x) {
  // Numerically stable in both tails.
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

double dsigmoid_from_output(double y) { return y * (1.0 - y); }

double dtanh_from_output(double y) { return 1.0 - y * y; }

const Matrix& ReLU::forward(const Matrix& input) {
  cached_input_ = input;
  out_ws_.resize_overwrite(input.rows(), input.cols());
  for (std::size_t i = 0; i < out_ws_.data().size(); ++i) {
    const double x = cached_input_.data()[i];
    out_ws_.data()[i] = x > 0.0 ? x : 0.0;
  }
  return out_ws_;
}

const Matrix& ReLU::backward(const Matrix& grad_output) {
  DRCELL_CHECK(grad_output.rows() == cached_input_.rows() &&
               grad_output.cols() == cached_input_.cols());
  grad_in_ws_.resize_overwrite(grad_output.rows(), grad_output.cols());
  for (std::size_t i = 0; i < grad_in_ws_.data().size(); ++i)
    grad_in_ws_.data()[i] =
        cached_input_.data()[i] > 0.0 ? grad_output.data()[i] : 0.0;
  return grad_in_ws_;
}

}  // namespace drcell::nn
