// Weight initialisation schemes.
#pragma once

#include "linalg/matrix.h"
#include "util/rng.h"

namespace drcell::nn {

/// Xavier/Glorot uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
/// Suited to tanh/sigmoid layers (the LSTM gates).
void xavier_uniform(Matrix& w, std::size_t fan_in, std::size_t fan_out,
                    Rng& rng);

}  // namespace drcell::nn
