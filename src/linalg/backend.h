// Swappable compute backends for the kernel surface the engine dispatches
// through: the three dense GEMM forms (blocked matmul, A·Bᵀ, out += Aᵀ·B),
// the SparseRowMatrix gather GEMM pair, and the fused LSTM gate pass.
// Everything above this layer — `Matrix`, `SparseRowMatrix`, `nn::Lstm`,
// and therefore every Q-network, trainer, and campaign — routes through the
// active backend, so a deployment can swap kernel implementations (native
// tuned loops, the retained naive reference, or one registered at startup)
// without forking src/linalg or src/nn.
//
// Contract tiers (pinned per backend by tests/backend_conformance.inc.cc,
// compiled once per registered backend):
//
//  * exact-contract backends (both built-ins, `native` and `reference`)
//    promise the repo's exact-arithmetic rules: per output element the
//    additions run in ascending-k order, aik == 0.0 terms are skipped,
//    contributions accumulate directly into the output (no per-element
//    temporaries), and each output row depends only on its own input row.
//    Those four rules are what make sparse-vs-dense gather bit-identity,
//    batched-vs-per-sample training bit-identity, and worker-count
//    invariance hold — see docs/ARCHITECTURE.md.
//  * tolerance backends (a registered backend whose exact_contract() is
//    false, e.g. one built on a vendor GEMM) make no accumulation-order
//    promise and are instead held to `tolerance_vs_native()` against the
//    native kernels on the conformance workloads.
//
// Selection order: BackendRegistry::set_active() > the DRCELL_BACKEND
// environment variable (read once, at the first active() call) > "native".
// Unknown names fail loudly via DRCELL_CHECK.
#pragma once

#include <memory>
#include <string>

namespace drcell {

class Matrix;
class SparseRowMatrix;

/// One kernel implementation set. Backends are stateless (all methods
/// const): the same instance is shared by every thread of the pool, and the
/// worker-count-invariance contract assumes a kernel call is a pure
/// function of its operands.
class ComputeBackend {
 public:
  virtual ~ComputeBackend() = default;

  /// Registry key ("native", "reference", ...).
  virtual const char* name() const = 0;

  /// True when the backend upholds the exact-arithmetic contract above.
  /// The full drcell_tests suite (whose bit-identity tests assume it) is
  /// only guaranteed to pass under exact-contract backends; tolerance
  /// backends are covered by their conformance suite instead.
  virtual bool exact_contract() const = 0;

  /// Max |x - x_native| permitted on the conformance workloads for
  /// single-kernel and single-forward comparisons against the native
  /// backend. 0.0 for native itself. (End-to-end training comparisons use
  /// the looser documented 1e-8 bound — the same one the fastmath-vs-std::
  /// gate contract already established.)
  virtual double tolerance_vs_native() const = 0;

  // --- Dense GEMM surface. Shape/alias checking and output sizing happen
  // in the Matrix methods before dispatch; kernels receive validated
  // operands. `out` arrives zeroed for matmul_into (kernels accumulate),
  // sized but unspecified for matmul_transposed_other_into (kernels assign
  // every element), and carrying the running sum for
  // matmul_transposed_self_add (kernels add to it).
  virtual void matmul_into(const Matrix& a, const Matrix& b,
                           Matrix& out) const = 0;
  virtual void matmul_transposed_other_into(const Matrix& a, const Matrix& b,
                                            Matrix& out) const = 0;
  virtual void matmul_transposed_self_add(const Matrix& a, const Matrix& b,
                                          Matrix& out) const = 0;

  // --- Sparse gather GEMM pair (same output conventions: matmul
  // accumulates into a zeroed out, transposed_self adds to a running sum).
  virtual void sparse_matmul_into(const SparseRowMatrix& a, const Matrix& b,
                                  Matrix& out) const = 0;
  virtual void sparse_matmul_transposed_self_add(const SparseRowMatrix& a,
                                                 const Matrix& b,
                                                 Matrix& out) const = 0;

  // --- Fused LSTM gate pass (signatures mirror nn::lstm_gate_forward/
  // backward; all tensors pre-sized by the caller, column layout
  // [i | f | g | o], c_prev nullptr on the first step).
  virtual void lstm_gate_forward(const Matrix& z, const Matrix* c_prev,
                                 Matrix& gates, Matrix& c, Matrix& tanh_c,
                                 Matrix& h) const = 0;
  virtual void lstm_gate_backward(const Matrix& gates, const Matrix& tanh_c,
                                  const Matrix* c_prev, const Matrix& dh,
                                  const Matrix& dc_next, Matrix& dz,
                                  Matrix& dc_prev) const = 0;
};

/// Process-wide backend registry. The built-in backends ("native" and
/// "reference") register themselves on first use; additional backends can
/// be registered at startup. active() is a lock-free atomic read after
/// initialisation, so hot kernel dispatch costs one load plus a virtual
/// call.
class BackendRegistry {
 public:
  /// Registers `backend` under backend->name(). Names must be unique;
  /// re-registering an existing name fails a DRCELL_CHECK.
  static void register_backend(std::unique_ptr<ComputeBackend> backend);

  /// The currently selected backend. On the first call the selection order
  /// documented above is applied (explicit set_active wins, then the
  /// DRCELL_BACKEND env var, then "native").
  static const ComputeBackend& active();

  /// Selects a registered backend by name (DRCELL_CHECKs that it exists).
  static void set_active(const std::string& name);

  /// Looks up a backend without activating it; nullptr when unknown.
  static const ComputeBackend* find(const std::string& name);
};

}  // namespace drcell
