// Deterministic random number generation for all drcell components.
//
// Every stochastic component in the library takes an explicit seed (or an
// Rng&) so that experiments are exactly reproducible. The generator is
// xoshiro256** seeded through SplitMix64, which is fast, high quality and
// has a tiny state compared to std::mt19937.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace drcell {

/// SplitMix64 — used to expand a single 64-bit seed into generator state.
/// Also usable standalone as a tiny counter-based generator.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) wrapped with the sampling helpers the
/// library needs. Satisfies UniformRandomBitGenerator so it can also be fed
/// to <random> distributions if ever required.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedu);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t uniform_index(std::size_t n);
  /// Standard normal via Box–Muller (cached spare value).
  double normal();
  /// Normal with the given mean and standard deviation (sd >= 0).
  double normal(double mean, double sd);
  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for per-component streams).
  Rng fork();

  /// Checkpoint/resume support: the full generator state as six words —
  /// the four xoshiro words, the cached Box–Muller spare (bit-cast), and
  /// its validity flag. restore_state(save_state()) resumes the exact draw
  /// stream, so a resumed campaign replays the uninterrupted one bit for
  /// bit (core/checkpoint.h).
  std::array<std::uint64_t, 6> save_state() const;
  void restore_state(const std::array<std::uint64_t, 6>& words);

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace drcell
