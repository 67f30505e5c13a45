// A ComputeBackend that forwards every kernel to another backend (native)
// and counts, per kernel, the calls and the work their operand shapes imply:
// floating-point operations and bytes read plus written. No per-call timers;
// each thread counts into its own shard, summed by totals() once the pooled
// work has drained.
//
// Work model (doubles are 8 bytes, sparse entries 12 with their index):
//   matmul            a[m x k] b[k x n]    2mkn flop, 8(mk + kn + mn) B
//   matmul_tother     a[m x k] b[n x k]    2mkn flop, 8(mk + nk + mn) B
//   matmul_tself_add  a[r x m] b[r x n]    2rmn flop, 8(rm + rn + 2mn) B
//   sparse_matmul     a: z entries, r rows; b[k x n]   2zn flop,
//                                          12z + 8zn + 8rn B
//   sparse_tself_add  a: z entries, r rows; b[r x n]   2zn flop,
//                                          12z + 8rn + 16zn B
//   lstm_gate_forward  z[B x 4H]   8 flop per gate element, 8B(12H) B
//   lstm_gate_backward            8 flop per gate element, 8B(13H) B
#pragma once

#include <array>
#include <cstdint>

#include "linalg/backend.h"

namespace perfbench {

enum class Kernel : std::uint8_t {
  kMatmul,
  kMatmulTother,
  kMatmulTselfAdd,
  kSparseMatmul,
  kSparseTselfAdd,
  kLstmGateForward,
  kLstmGateBackward,
  kCount
};
inline constexpr std::size_t kKernels = static_cast<std::size_t>(Kernel::kCount);

/// Metric-name stem of a kernel ("matmul_tself_add", ...).
const char* kernel_name(Kernel kernel);

struct KernelWork {
  std::uint64_t calls = 0;
  double flop = 0.0;
  double bytes = 0.0;
};

class CountingBackend final : public drcell::ComputeBackend {
 public:
  explicit CountingBackend(const drcell::ComputeBackend& inner);

  /// Registry name of the counting backend.
  static constexpr const char* kName = "counting";

  /// Registers a CountingBackend around `inner_name` under kName (once per
  /// process; later calls are no-ops).
  static void register_around(const char* inner_name);

  /// Per-kernel totals over every thread since the last reset().
  /// Quiescent callers only.
  static std::array<KernelWork, kKernels> totals();
  static void reset();

  const char* name() const override { return kName; }
  bool exact_contract() const override { return inner_.exact_contract(); }
  double tolerance_vs_native() const override {
    return inner_.tolerance_vs_native();
  }

  void matmul_into(const drcell::Matrix& a, const drcell::Matrix& b,
                   drcell::Matrix& out) const override;
  void matmul_transposed_other_into(const drcell::Matrix& a,
                                    const drcell::Matrix& b,
                                    drcell::Matrix& out) const override;
  void matmul_transposed_self_add(const drcell::Matrix& a,
                                  const drcell::Matrix& b,
                                  drcell::Matrix& out) const override;
  void sparse_matmul_into(const drcell::SparseRowMatrix& a,
                          const drcell::Matrix& b,
                          drcell::Matrix& out) const override;
  void sparse_matmul_transposed_self_add(const drcell::SparseRowMatrix& a,
                                         const drcell::Matrix& b,
                                         drcell::Matrix& out) const override;
  void lstm_gate_forward(const drcell::Matrix& z, const drcell::Matrix* c_prev,
                         drcell::Matrix& gates, drcell::Matrix& c,
                         drcell::Matrix& tanh_c,
                         drcell::Matrix& h) const override;
  void lstm_gate_backward(const drcell::Matrix& gates,
                          const drcell::Matrix& tanh_c,
                          const drcell::Matrix* c_prev,
                          const drcell::Matrix& dh,
                          const drcell::Matrix& dc_next, drcell::Matrix& dz,
                          drcell::Matrix& dc_prev) const override;

 private:
  const drcell::ComputeBackend& inner_;
};

}  // namespace perfbench
