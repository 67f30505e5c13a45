#include "nn/activations.h"

#include <cmath>

#include "util/fastmath.h"

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

const Matrix& Tanh::forward(const Matrix& input) {
  cached_output_ = input;
  fastmath::tanh_inplace(cached_output_.data());
  return cached_output_;
}

const Matrix& Tanh::backward(const Matrix& grad_output) {
  DRCELL_CHECK(grad_output.rows() == cached_output_.rows() &&
               grad_output.cols() == cached_output_.cols());
  grad_in_ws_.resize_overwrite(grad_output.rows(), grad_output.cols());
  fastmath::dtanh_from_output_array(cached_output_.data().data(),
                                    grad_output.data().data(),
                                    grad_in_ws_.data().data(),
                                    grad_in_ws_.data().size());
  return grad_in_ws_;
}

const Matrix& Sigmoid::forward(const Matrix& input) {
  cached_output_ = input;
  fastmath::sigmoid_inplace(cached_output_.data());
  return cached_output_;
}

const Matrix& Sigmoid::backward(const Matrix& grad_output) {
  DRCELL_CHECK(grad_output.rows() == cached_output_.rows() &&
               grad_output.cols() == cached_output_.cols());
  grad_in_ws_.resize_overwrite(grad_output.rows(), grad_output.cols());
  fastmath::dsigmoid_from_output_array(cached_output_.data().data(),
                                       grad_output.data().data(),
                                       grad_in_ws_.data().data(),
                                       grad_in_ws_.data().size());
  return grad_in_ws_;
}

Matrix Tanh::forward_reference(const Matrix& input) {
  cached_output_ = input;
  cached_output_.apply([](double x) { return std::tanh(x); });
  return cached_output_;
}

Matrix Tanh::backward_reference(const Matrix& grad_output) {
  DRCELL_CHECK(grad_output.rows() == cached_output_.rows() &&
               grad_output.cols() == cached_output_.cols());
  Matrix grad_in(grad_output.rows(), grad_output.cols());
  for (std::size_t i = 0; i < grad_in.data().size(); ++i)
    grad_in.data()[i] =
        grad_output.data()[i] * dtanh_from_output(cached_output_.data()[i]);
  return grad_in;
}

Matrix Sigmoid::forward_reference(const Matrix& input) {
  cached_output_ = input;
  cached_output_.apply([](double x) { return sigmoid(x); });
  return cached_output_;
}

Matrix Sigmoid::backward_reference(const Matrix& grad_output) {
  DRCELL_CHECK(grad_output.rows() == cached_output_.rows() &&
               grad_output.cols() == cached_output_.cols());
  Matrix grad_in(grad_output.rows(), grad_output.cols());
  for (std::size_t i = 0; i < grad_in.data().size(); ++i)
    grad_in.data()[i] =
        grad_output.data()[i] * dsigmoid_from_output(cached_output_.data()[i]);
  return grad_in;
}

}  // namespace drcell::nn
