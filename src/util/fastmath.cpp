#include "util/fastmath.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

// The array kernels are built twice from one body — baseline ISA and AVX2
// (util/isa.h) — and picked once per process from a function-local static
// table, so the one shipped binary runs 4-wide where the hardware allows
// without baking an -march into the build and without ifunc. Every variant
// runs the identical IEEE-754 expression graph (this file is compiled with
// -ffp-contract=off and -fno-trapping-math — see CMakeLists.txt), so the
// variants are bit-identical; only the vector width differs.

namespace drcell::fastmath {

namespace {

constexpr double kLog2e = 1.4426950408889634074;
// Cody–Waite split of ln2: kLn2Hi carries ~38 significant bits, so
// k · kLn2Hi is exact for |k| ≤ 2^11 and the reduced argument
// r = x − k·ln2 keeps full precision.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
// 1.5 · 2^52: adding it rounds x·log2e to the nearest integer in the low
// mantissa bits (round-to-nearest-even), recoverable both as a double
// (kd − kShift) and as an int64 (bit-pattern difference).
constexpr double kShift = 6755399441055744.0;
// Domain clamps. Below kUnderflow the result flushes to 0 (k stays ≥ -1022
// so the single-step 2^k exponent assembly of the nonpositive helpers is a
// normal double; the subnormal tail of std::exp is not reproduced). Above
// kOverflow the result is +inf — the clamp sits just past the IEEE overflow
// threshold (~709.783), and exp_one's split 2^hi·2^lo scaling evaluates the
// stretch up to it correctly, so fastmath::exp overflows exactly where
// std::exp does (within the polynomial tolerance).
constexpr double kUnderflow = -708.0;
constexpr double kOverflow = 710.0;

/// expm1(r) on the reduced range |r| ≤ ln2/2 ≈ 0.3466: Taylor/Horner,
/// expm1(r) = r + r²·q(r) with q(r) = Σ_{m=0}^{10} r^m/(m+2)!. The series
/// truncation error is r^13/13! ≤ 1.7e-16 absolute on the range; the form
/// r + r²·q keeps the leading term exact, so small arguments (including
/// denormals, whose r² underflows to 0) pass through with no cancellation.
inline double expm1_poly(double r) {
  double q = 1.0 / 479001600.0;  // 1/12!
  q = q * r + 1.0 / 39916800.0;  // 1/11!
  q = q * r + 1.0 / 3628800.0;   // 1/10!
  q = q * r + 1.0 / 362880.0;    // 1/9!
  q = q * r + 1.0 / 40320.0;     // 1/8!
  q = q * r + 1.0 / 5040.0;      // 1/7!
  q = q * r + 1.0 / 720.0;       // 1/6!
  q = q * r + 1.0 / 120.0;       // 1/5!
  q = q * r + 1.0 / 24.0;        // 1/4!
  q = q * r + 1.0 / 6.0;         // 1/3!
  q = q * r + 0.5;               // 1/2!
  return r + (r * r) * q;
}

struct Reduction {
  double r;        ///< x − k·ln2, |r| ≤ ln2/2
  std::int64_t k;  ///< the subtracted ln2 multiple
};

/// Branch-free range reduction. Requires x ∈ [kUnderflow, kOverflow]; the
/// callers clamp first and patch the out-of-range/special lanes with
/// selects afterwards. Deliberately avoids int↔fp conversions (no direct
/// 64-bit conversion before AVX-512): kf is recovered as kd − kShift and
/// the integer k only ever feeds exponent bit assembly.
inline Reduction reduce(double x) {
  const double kd = x * kLog2e + kShift;
  const double kf = kd - kShift;
  const std::int64_t k =
      std::bit_cast<std::int64_t>(kd) - std::bit_cast<std::int64_t>(kShift);
  double r = x - kf * kLn2Hi;
  r -= kf * kLn2Lo;
  return {r, k};
}

/// 2^k by exponent bit assembly; requires k ∈ [-1022, 1023] (normal range).
inline double pow2(std::int64_t k) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(1023 + k) << 52);
}

/// e^x for clamped finite x. The scale is applied as 2^hi · 2^lo (each half
/// within the normal exponent range for k ∈ [-1022, 1024]), so the stretch
/// between 2^1023·e^r and the IEEE overflow threshold evaluates correctly
/// and anything beyond it overflows to +inf exactly where std::exp does.
inline double exp_core(double x) {
  const Reduction red = reduce(x);
  const std::int64_t hi = (red.k + 1) >> 1;  // ceil(k/2)
  const std::int64_t lo = red.k - hi;
  return (expm1_poly(red.r) + 1.0) * pow2(hi) * pow2(lo);
}

/// exp(x) for x ≤ 0 with the underflow lane patched (NaN propagates through
/// the untaken clamp branch). Single-step scaling: the clamp keeps
/// k ≥ -1022, so 2^k is always a normal double here.
inline double exp_nonpos(double x) {
  const double xc = x < kUnderflow ? kUnderflow : x;
  const Reduction red = reduce(xc);
  const double e = (expm1_poly(red.r) + 1.0) * pow2(red.k);
  return x < kUnderflow ? 0.0 : e;
}

/// expm1(u) for u ≤ 0: 2^k·expm1(r) + (2^k − 1). The second term is exact
/// for k ≥ −52 and the first is ≤ 0.41·2^k, so the sum never cancels more
/// than one bit; for u below the clamp both terms collapse to −1 exactly.
inline double expm1_nonpos(double u) {
  const double uc = u < kUnderflow ? kUnderflow : u;
  const Reduction red = reduce(uc);
  const double scale = pow2(red.k);
  return scale * expm1_poly(red.r) + (scale - 1.0);
}

inline double exp_one(double x) {
  const double xlo = x < kUnderflow ? kUnderflow : x;
  const double xc = xlo > kOverflow ? kOverflow : xlo;
  double e = exp_core(xc);
  e = x < kUnderflow ? 0.0 : e;
  e = x > kOverflow ? std::numeric_limits<double>::infinity() : e;
  // NaN input: every select above is untaken, exp_core's garbage k still
  // multiplies into a NaN polynomial, so NaN propagates.
  return e;
}

inline double tanh_one(double x) {
  const double em1 = expm1_nonpos(-2.0 * std::fabs(x));
  const double t = -em1 / (2.0 + em1);
  return std::copysign(t, x);  // keeps ±0 and NaN
}

inline double sigmoid_one(double x) {
  const double e = exp_nonpos(-std::fabs(x));
  const double num = x >= 0.0 ? 1.0 : e;  // NaN lane: num = e = NaN
  return num / (1.0 + e);
}

DRCELL_KERNEL_INLINE void exp_body(const double* src, double* dst,
                                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = exp_one(src[i]);
}

DRCELL_KERNEL_INLINE void tanh_body(const double* src, double* dst,
                                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = tanh_one(src[i]);
}

DRCELL_KERNEL_INLINE void sigmoid_body(const double* src, double* dst,
                                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = sigmoid_one(src[i]);
}

// One function per (kernel, ISA): the baseline build and the AVX2 build of
// the same inlined body.
#define DRCELL_FASTMATH_VARIANT(suffix, attr)                                 \
  attr void exp_##suffix(const double* src, double* dst, std::size_t n) {     \
    exp_body(src, dst, n);                                                    \
  }                                                                           \
  attr void tanh_##suffix(const double* src, double* dst, std::size_t n) {    \
    tanh_body(src, dst, n);                                                   \
  }                                                                           \
  attr void sigmoid_##suffix(const double* src, double* dst,                  \
                             std::size_t n) {                                 \
    sigmoid_body(src, dst, n);                                                \
  }

DRCELL_FASTMATH_VARIANT(baseline, )
#if DRCELL_HAVE_AVX2_VARIANT
DRCELL_FASTMATH_VARIANT(avx2, DRCELL_TARGET_AVX2)
#endif
#undef DRCELL_FASTMATH_VARIANT

constexpr ArrayVariant kVariants[] = {
    {isa::Isa::kBaseline, exp_baseline, tanh_baseline, sigmoid_baseline},
#if DRCELL_HAVE_AVX2_VARIANT
    {isa::Isa::kAvx2, exp_avx2, tanh_avx2, sigmoid_avx2},
#endif
};

}  // namespace

double exp(double x) { return exp_one(x); }
double tanh(double x) { return tanh_one(x); }
double sigmoid(double x) { return sigmoid_one(x); }

std::span<const ArrayVariant> array_variants() {
  return isa::host_variants(kVariants);
}

namespace {

/// The selected variant: the last one the host supports.
const ArrayVariant& selected_variant() {
  static const ArrayVariant& variant = array_variants().back();
  return variant;
}

}  // namespace

void exp_array(const double* src, double* dst, std::size_t n) {
  selected_variant().exp_array(src, dst, n);
}

void tanh_array(const double* src, double* dst, std::size_t n) {
  selected_variant().tanh_array(src, dst, n);
}

void sigmoid_array(const double* src, double* dst, std::size_t n) {
  selected_variant().sigmoid_array(src, dst, n);
}

}  // namespace drcell::fastmath
