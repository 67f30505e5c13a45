// Vectorised elementwise transcendental kernels — the fastmath layer behind
// the fused LSTM gate pass and the GP kernel rows of the field generator.
//
// std::exp / std::tanh are scalar library calls: accurate to <1 ulp, but they
// branch per element and never vectorise, and the LSTM gate nonlinearities
// (4 per hidden unit per step) became the dominant per-sample train-step
// cost once the GEMMs were batched (ROADMAP). The kernels here trade that
// last digit for a branch-light polynomial form the compiler can keep in
// SIMD registers across a whole array pass:
//
//   exp   — exp2-style range reduction x = k·ln2 + r (Cody–Waite two-part
//           ln2, round-to-nearest via the 1.5·2^52 shift trick), degree-11
//           Taylor/Horner for e^r on |r| ≤ ln2/2, scale by 2^k through exponent
//           bit assembly. No per-element branches; specials (NaN, ±inf,
//           overflow, underflow) are patched with selects the vectoriser
//           turns into blends.
//   tanh  — tanh(x) = -em1 / (2 + em1) with em1 = expm1(-2|x|) computed
//           through the same reduction (expm1 form, so the small-|x| path
//           suffers no 1 - e cancellation), sign restored via copysign.
//   sigmoid — e = exp(-|x|); sigmoid = (x ≥ 0 ? 1 : e) / (1 + e), the
//           branchless form of the numerically stable two-sided evaluation.
//
// Accuracy contract (tests/fastmath_test.cpp sweeps a dense grid against
// std:: and the edge cases): on the training range [-40, 40] the relative
// error of tanh/sigmoid/exp is ≤ 1e-12 (measured ≲ 5e-14; the degree-11
// polynomial's truncation bound on |r| ≤ 0.3466 is 6.3e-15 before rounding).
// Outside it: tanh saturates to ±1 and sigmoid to {0, 1} exactly where
// std:: does within 1 ulp; exp flushes to 0 below x ≈ -708 (the subnormal
// tail is not reproduced) and to +inf above x ≈ 709.8; NaN propagates;
// denormal inputs pass through tanh/sigmoid exactly (tanh(x) = x,
// sigmoid(x) = 0.5 at that magnitude).
//
// Determinism: every kernel performs the same IEEE-754 double operations per
// element regardless of vector width, and the translation unit is compiled
// with -ffp-contract=off, so the array kernels' ISA variants (AVX2 and
// baseline on x86-64 with GCC or Clang, selected once at run time by
// util/isa.h; a single baseline build elsewhere) produce bit-identical
// results on every machine. Results differ from std:: by the documented
// bound — the numeric-divergence contract of the fused LSTM gate kernel
// (docs/ARCHITECTURE.md) is stated against this layer.
#pragma once

#include <cstddef>
#include <span>

#include "util/isa.h"

namespace drcell::fastmath {

/// Scalar forms (the array kernels apply exactly these per element; exposed
/// for the accuracy tests and for callers with a single value in hand).
double exp(double x);
double tanh(double x);
double sigmoid(double x);

/// Out-of-place array forms: dst[i] = f(src[i]). src and dst may alias
/// exactly (dst == src) but must not partially overlap.
void exp_array(const double* src, double* dst, std::size_t n);
void tanh_array(const double* src, double* dst, std::size_t n);
void sigmoid_array(const double* src, double* dst, std::size_t n);

/// In-place exp (the GP kernel rows of data/synthetic_field.cpp).
inline void exp_inplace(std::span<double> x) {
  exp_array(x.data(), x.data(), x.size());
}

/// One ISA build of the three array kernels above (same signatures). Every
/// variant is bit-identical to every other; they differ in vector width.
struct ArrayVariant {
  isa::Isa isa;
  void (*exp_array)(const double*, double*, std::size_t);
  void (*tanh_array)(const double*, double*, std::size_t);
  void (*sigmoid_array)(const double*, double*, std::size_t);
};

/// The variants this host can run, baseline first (AVX2 second when
/// supported). The array functions above call the isa::selected() one; the
/// kernel property tests call each of these directly.
std::span<const ArrayVariant> array_variants();

}  // namespace drcell::fastmath
