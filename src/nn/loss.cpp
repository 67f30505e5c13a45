#include "nn/loss.h"

#include <cmath>

#include "util/check.h"

namespace drcell::nn {

namespace {
void check_same_shape(const Matrix& a, const Matrix& b) {
  DRCELL_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                   "loss shape mismatch");
}
}  // namespace

LossResult masked_huber_loss(const Matrix& predictions, const Matrix& targets,
                             const Matrix& mask, double delta,
                             double normalizer) {
  check_same_shape(predictions, targets);
  check_same_shape(predictions, mask);
  DRCELL_CHECK(delta > 0.0);
  LossResult out;
  out.grad = Matrix(predictions.rows(), predictions.cols());
  double count = 0.0;
  for (std::size_t i = 0; i < predictions.data().size(); ++i)
    if (mask.data()[i] != 0.0) count += 1.0;
  DRCELL_CHECK_MSG(count > 0.0, "loss mask is entirely zero");
  out.normalizer = normalizer > 0.0 ? normalizer : count;
  for (std::size_t i = 0; i < predictions.data().size(); ++i) {
    if (mask.data()[i] == 0.0) continue;
    const double d = predictions.data()[i] - targets.data()[i];
    if (std::fabs(d) <= delta) {
      out.raw_sum += 0.5 * d * d;
      out.grad.data()[i] = d / out.normalizer;
    } else {
      out.raw_sum += delta * (std::fabs(d) - 0.5 * delta);
      out.grad.data()[i] = (d > 0.0 ? delta : -delta) / out.normalizer;
    }
  }
  out.value = out.raw_sum / out.normalizer;
  return out;
}

}  // namespace drcell::nn
