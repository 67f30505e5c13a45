#include "util/rng.h"

#include <bit>
#include <cmath>

namespace drcell {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // All-zero state is the one invalid state for xoshiro; SplitMix64 cannot
  // produce four zeros from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  DRCELL_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::size_t Rng::uniform_index(std::size_t n) {
  DRCELL_CHECK_MSG(n > 0, "uniform_index requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return static_cast<std::size_t>(x % n);
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1, u2;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586476925286766559;
  spare_normal_ = mag * std::sin(two_pi * u2);
  has_spare_normal_ = true;
  return mag * std::cos(two_pi * u2);
}

double Rng::normal(double mean, double sd) {
  DRCELL_CHECK(sd >= 0.0);
  return mean + sd * normal();
}

bool Rng::bernoulli(double p) {
  DRCELL_CHECK(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

Rng Rng::fork() { return Rng(next_u64()); }

std::array<std::uint64_t, 6> Rng::save_state() const {
  return {s_[0], s_[1], s_[2], s_[3],
          std::bit_cast<std::uint64_t>(spare_normal_),
          has_spare_normal_ ? std::uint64_t{1} : std::uint64_t{0}};
}

void Rng::restore_state(const std::array<std::uint64_t, 6>& words) {
  DRCELL_CHECK_MSG((words[0] | words[1] | words[2] | words[3]) != 0,
                   "all-zero xoshiro state is invalid");
  for (std::size_t i = 0; i < 4; ++i) s_[i] = words[i];
  spare_normal_ = std::bit_cast<double>(words[4]);
  has_spare_normal_ = words[5] != 0;
}

}  // namespace drcell
