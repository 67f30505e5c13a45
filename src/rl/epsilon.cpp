#include "rl/epsilon.h"

#include <cmath>

#include "util/check.h"

namespace drcell::rl {

EpsilonSchedule::EpsilonSchedule(double start, double end,
                                 std::size_t decay_steps, Decay decay)
    : start_(start), end_(end), decay_steps_(decay_steps), decay_(decay) {
  DRCELL_CHECK(start_ >= 0.0 && start_ <= 1.0);
  DRCELL_CHECK(end_ >= 0.0 && end_ <= 1.0);
  DRCELL_CHECK_MSG(end_ <= start_, "epsilon schedules decay downwards");
  DRCELL_CHECK(decay_steps_ > 0);
}

double EpsilonSchedule::value(std::size_t step) const {
  if (step >= decay_steps_) {
    if (decay_ == Decay::kLinear) return end_;
  }
  const double t = static_cast<double>(step) /
                   static_cast<double>(decay_steps_);
  switch (decay_) {
    case Decay::kLinear:
      return start_ + (end_ - start_) * std::min(1.0, t);
    case Decay::kExponential:
      // Reaches ~end + (start-end)/e^3 at decay_steps.
      return end_ + (start_ - end_) * std::exp(-3.0 * t);
  }
  return end_;
}

}  // namespace drcell::rl
