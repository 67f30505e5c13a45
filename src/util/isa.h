// Run-time ISA selection for the library's SIMD kernels (the dense GEMM
// family in linalg/kernels.cpp and the fastmath array kernels).
//
// Each kernel body is written once, as an always-inline function, and built
// twice in its own translation unit: once plain (the baseline x86-64 / host
// ISA) and once inside a DRCELL_TARGET_AVX2 wrapper. Every TU then keeps a
// function-local static table of its variants and picks one on first use
// from selected(). No function is a GNU ifunc (as function multiversioning
// emits): an ifunc resolver runs before the sanitizer runtimes are up and
// crashes every ThreadSanitizer binary before `main`, while a function
// pointer picked on first use does not. No build option or environment
// variable selects the ISA — the CPU does.
//
// The variants are bit-identical by construction: the kernel TUs are
// compiled with -ffp-contract=off and `target("avx2")` does not enable FMA,
// so every variant performs the same IEEE-754 mul and add per element in
// the same order; only the vector width differs.
#pragma once

#include <cstddef>
#include <span>

namespace drcell::isa {

enum class Isa { kBaseline, kAvx2 };

/// The ISA the dispatched kernels run on: kAvx2 when the CPU and the OS
/// support AVX2 and the build has an AVX2 variant, kBaseline otherwise.
/// Decided once, on the first call.
Isa selected();

/// Whether this host can run the variant built for `isa` (kBaseline always).
bool supported(Isa isa);

/// "avx2" or "baseline" — the label stamped into bench reports.
const char* name(Isa isa);

/// The entries of a {baseline, avx2} variant table this host can run:
/// baseline always, AVX2 when supported. Its last entry is the selected one.
template <class Variant, std::size_t N>
std::span<const Variant> host_variants(const Variant (&table)[N]) {
  return {table, supported(Isa::kAvx2) ? N : std::size_t{1}};
}

}  // namespace drcell::isa

// The AVX2 variants exist on x86-64 with GCC or Clang; elsewhere only the
// baseline body is built and selected() is always kBaseline.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DRCELL_HAVE_AVX2_VARIANT 1
#define DRCELL_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define DRCELL_HAVE_AVX2_VARIANT 0
#endif

// Kernel bodies are inlined into each ISA wrapper, so the wrapper's target
// decides the instructions they compile to.
#define DRCELL_KERNEL_INLINE inline __attribute__((always_inline))
