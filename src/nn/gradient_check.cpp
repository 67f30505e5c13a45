#include "nn/gradient_check.h"

#include <cmath>

namespace drcell::nn {

GradCheckResult check_gradient(Parameter& param,
                               const std::function<double()>& loss,
                               double eps) {
  GradCheckResult result;
  auto values = param.mutable_value().data();
  const auto grads = param.grad.data();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double saved = values[i];
    values[i] = saved + eps;
    const double up = loss();
    values[i] = saved - eps;
    const double down = loss();
    values[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    const double analytic = grads[i];
    const double abs_diff = std::fabs(numeric - analytic);
    const double denom =
        std::max(1e-12, std::max(std::fabs(numeric), std::fabs(analytic)));
    result.max_abs_diff = std::max(result.max_abs_diff, abs_diff);
    result.max_rel_diff = std::max(result.max_rel_diff, abs_diff / denom);
  }
  return result;
}

}  // namespace drcell::nn
