// Finite-difference gradient verification used by the nn test suite.
#pragma once

#include <functional>

#include "nn/layer.h"

namespace drcell::nn {

/// Result of comparing analytic vs numeric gradients for one parameter.
struct GradCheckResult {
  double max_abs_diff = 0.0;
  double max_rel_diff = 0.0;
  bool passed(double tol = 1e-5) const {
    return max_abs_diff < tol || max_rel_diff < tol;
  }
};

/// `loss` must recompute the full forward pass and return the scalar loss;
/// `param.grad` must already hold the analytic gradient of that loss.
/// Central differences with step `eps` on every element of param.value().
GradCheckResult check_gradient(Parameter& param,
                               const std::function<double()>& loss,
                               double eps = 1e-6);

}  // namespace drcell::nn
