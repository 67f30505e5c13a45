// Accuracy contract of the fastmath elementwise kernels (util/fastmath.h):
// ≤1e-12 relative vs std:: on the training range [-40, 40] (the measured
// error is ≲1e-15; the 1e-12 bound is the documented contract the fused
// LSTM gate kernel and the nn/ activations rely on), plus the special-value
// edge cases (±0, denormals, ±inf, NaN, overflow/underflow clamps) and the
// array/in-place forms.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/fastmath.h"
#include "util/rng.h"

namespace drcell {
namespace {

constexpr double kContractBound = 1e-12;  // relative, on [-40, 40]

double stable_std_sigmoid(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double z = std::exp(x);
  return z / (1.0 + z);
}

double rel_err(double got, double want) {
  if (want == 0.0) return got == 0.0 ? 0.0 : std::fabs(got);
  return std::fabs(got - want) / std::fabs(want);
}

TEST(Fastmath, DenseGridSweepAgainstStd) {
  // ~80k-point dense grid over the contract range. The grid is offset off
  // round numbers so it lands on generic doubles.
  double worst_tanh = 0.0, worst_sigmoid = 0.0, worst_exp = 0.0;
  for (double x = -40.0 + 1.23e-5; x <= 40.0; x += 1e-3) {
    worst_tanh = std::max(worst_tanh, rel_err(fastmath::tanh(x), std::tanh(x)));
    worst_sigmoid = std::max(
        worst_sigmoid, rel_err(fastmath::sigmoid(x), stable_std_sigmoid(x)));
    worst_exp = std::max(worst_exp, rel_err(fastmath::exp(x), std::exp(x)));
  }
  EXPECT_LT(worst_tanh, kContractBound);
  EXPECT_LT(worst_sigmoid, kContractBound);
  EXPECT_LT(worst_exp, kContractBound);
}

TEST(Fastmath, RandomSweepNearZeroAndTails) {
  // The cancellation-prone regions: tiny arguments (where tanh ≈ x and a
  // 1 − e^{-2x} formulation would lose half the digits) and the saturating
  // tails.
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const double mag = std::pow(10.0, rng.uniform(-15.0, 1.6));
    const double x = (rng.bernoulli(0.5) ? 1.0 : -1.0) * mag;
    EXPECT_LT(rel_err(fastmath::tanh(x), std::tanh(x)), kContractBound) << x;
    EXPECT_LT(rel_err(fastmath::sigmoid(x), stable_std_sigmoid(x)),
              kContractBound)
        << x;
  }
}

TEST(Fastmath, SignedZeroAndDenormals) {
  EXPECT_EQ(fastmath::tanh(0.0), 0.0);
  EXPECT_FALSE(std::signbit(fastmath::tanh(0.0)));
  EXPECT_TRUE(std::signbit(fastmath::tanh(-0.0)));  // tanh(-0) = -0
  EXPECT_EQ(fastmath::sigmoid(0.0), 0.5);
  EXPECT_EQ(fastmath::sigmoid(-0.0), 0.5);
  EXPECT_EQ(fastmath::exp(0.0), 1.0);

  // Denormal inputs: tanh(x) = x exactly at that magnitude (the r + r²·q
  // polynomial form keeps the leading term exact; r² underflows to 0).
  const double denorm = 5e-310;
  EXPECT_EQ(fastmath::tanh(denorm), denorm);
  EXPECT_EQ(fastmath::tanh(-denorm), -denorm);
  EXPECT_EQ(fastmath::tanh(std::numeric_limits<double>::denorm_min()),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(fastmath::sigmoid(denorm), 0.5);
  EXPECT_EQ(fastmath::sigmoid(-denorm), 0.5);
  EXPECT_EQ(fastmath::exp(denorm), 1.0);
}

TEST(Fastmath, InfinitiesNaNAndClamps) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(fastmath::tanh(inf), 1.0);
  EXPECT_EQ(fastmath::tanh(-inf), -1.0);
  EXPECT_EQ(fastmath::sigmoid(inf), 1.0);
  EXPECT_EQ(fastmath::sigmoid(-inf), 0.0);
  EXPECT_EQ(fastmath::exp(-inf), 0.0);
  EXPECT_EQ(fastmath::exp(inf), inf);
  EXPECT_TRUE(std::isnan(fastmath::tanh(std::nan(""))));
  EXPECT_TRUE(std::isnan(fastmath::sigmoid(std::nan(""))));
  EXPECT_TRUE(std::isnan(fastmath::exp(std::nan(""))));

  // Saturation matches std:: exactly well before the clamp boundaries.
  EXPECT_EQ(fastmath::tanh(25.0), 1.0);
  EXPECT_EQ(fastmath::tanh(-25.0), -1.0);
  EXPECT_EQ(fastmath::sigmoid(50.0), 1.0);
  // Documented divergence outside the contract range: exp flushes to 0
  // below ≈ -708 (no subnormal tail); overflow to +inf happens at the IEEE
  // threshold (~709.783), same as std::exp — the last finite stretch still
  // evaluates (split 2^hi·2^lo scaling).
  EXPECT_EQ(fastmath::exp(-760.0), 0.0);
  EXPECT_LT(rel_err(fastmath::exp(709.5), std::exp(709.5)), kContractBound);
  EXPECT_EQ(fastmath::exp(709.9), inf);
  EXPECT_EQ(std::exp(709.9), inf);  // agreeing with std::, not diverging
  EXPECT_EQ(fastmath::exp(800.0), inf);
  EXPECT_EQ(fastmath::sigmoid(-760.0), 0.0);
}

TEST(Fastmath, ArrayFormsMatchScalarAndAliasSafely) {
  Rng rng(3);
  std::vector<double> x(257);  // odd length: exercises the vector epilogue
  for (double& v : x) v = rng.uniform(-42.0, 42.0);
  x[0] = 0.0;
  x[1] = -0.0;
  x[2] = std::numeric_limits<double>::infinity();
  x[3] = -std::numeric_limits<double>::infinity();

  std::vector<double> out(x.size());
  fastmath::tanh_array(x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(out[i], fastmath::tanh(x[i])) << i;
  fastmath::sigmoid_array(x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(out[i], fastmath::sigmoid(x[i])) << i;
  fastmath::exp_array(x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(out[i], fastmath::exp(x[i])) << i;

  // In-place (exactly aliased) calls produce the same values.
  std::vector<double> inplace = x;
  fastmath::tanh_array(inplace.data(), inplace.data(), inplace.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(inplace[i], fastmath::tanh(x[i])) << i;
  inplace = x;
  fastmath::sigmoid_array(inplace.data(), inplace.data(), inplace.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(inplace[i], fastmath::sigmoid(x[i])) << i;
  inplace = x;
  fastmath::exp_inplace(inplace);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(inplace[i], fastmath::exp(x[i])) << i;
}

}  // namespace
}  // namespace drcell
