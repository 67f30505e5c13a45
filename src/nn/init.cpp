#include "nn/init.h"

#include <cmath>

namespace drcell::nn {

void xavier_uniform(Matrix& w, std::size_t fan_in, std::size_t fan_out,
                    Rng& rng) {
  DRCELL_CHECK(fan_in + fan_out > 0);
  const double a =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (double& x : w.data()) x = rng.uniform(-a, a);
}

}  // namespace drcell::nn
