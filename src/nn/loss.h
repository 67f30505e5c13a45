// The DQN loss. The trainer masks it: only the Q-value of the action
// actually taken receives a TD error (Eq. 5 of the paper); all other action
// outputs get zero gradient.
#pragma once

#include "linalg/matrix.h"

namespace drcell::nn {

struct LossResult {
  double value = 0.0;    ///< scalar loss: raw_sum / normalizer
  double raw_sum = 0.0;  ///< unnormalised sum of per-element losses,
                         ///< accumulated in row-major (batch-row) order
  double normalizer = 0.0;  ///< divisor applied to raw_sum and the gradients
  Matrix grad;              ///< gradient w.r.t. predictions (same shape)
};

/// Masked Huber loss with threshold delta (gradient clipping built into the
/// loss — the standard DQN stabilisation): elements where mask == 0
/// contribute neither loss nor gradient. The mean is over unmasked elements
/// only, unless `normalizer` is positive — then both the loss and the
/// gradients divide by that instead. A per-sample reference path passes the
/// whole batch's unmasked count so its per-row gradients match the batched
/// call bit for bit.
LossResult masked_huber_loss(const Matrix& predictions, const Matrix& targets,
                             const Matrix& mask, double delta = 1.0,
                             double normalizer = 0.0);

}  // namespace drcell::nn
