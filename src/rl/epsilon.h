// The δ-greedy exploration schedule of Sec. 4.2: start with a large δ
// ("try more at the beginning"), then decay it as training proceeds.
#pragma once

#include <cstddef>

namespace drcell::rl {

class EpsilonSchedule {
 public:
  enum class Decay { kLinear, kExponential };

  /// Decays from `start` to `end` over `decay_steps` steps.
  EpsilonSchedule(double start, double end, std::size_t decay_steps,
                  Decay decay = Decay::kLinear);

  double value(std::size_t step) const;
  double start() const { return start_; }
  double end() const { return end_; }

 private:
  double start_;
  double end_;
  std::size_t decay_steps_;
  Decay decay_;
};

}  // namespace drcell::rl
