#include "util/isa.h"

namespace drcell::isa {

namespace {

bool host_has_avx2() {
#if DRCELL_HAVE_AVX2_VARIANT
  // The libgcc/compiler-rt CPU model is filled by a constructor; calling
  // the init explicitly makes a first use from another static initialiser
  // safe too. The AVX2 bit already accounts for the OS saving YMM state.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

Isa selected() {
  static const Isa isa = host_has_avx2() ? Isa::kAvx2 : Isa::kBaseline;
  return isa;
}

bool supported(Isa isa) {
  return isa == Isa::kBaseline || selected() == Isa::kAvx2;
}

const char* name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "baseline";
}

}  // namespace drcell::isa
