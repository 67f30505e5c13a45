// The native kernel bodies behind the "native" compute backend
// (linalg/kernels.cpp). They are plain free functions so the native backend,
// the conformance suite, and the native-pin regression test can call them
// without going through the registry; each forwards to the ISA variant
// selected once per process (util/isa.h). Precondition checking and output
// sizing are the callers' job (the Matrix/SparseRowMatrix methods validate
// before dispatch); kernels assume validated operands and the output
// conventions documented on ComputeBackend (linalg/backend.h).
#pragma once

#include <span>

#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "util/isa.h"

namespace drcell::kernels {

/// Cache-blocked matmul with 16-wide register strips inside each tile.
/// Accumulates into a zeroed, pre-sized `out`. Per output element the
/// additions run in ascending-k order with the aik == 0.0 skip, and each
/// output row depends only on its own input row (the batched-determinism
/// contract).
void matmul_blocked_into(const Matrix& a, const Matrix& b, Matrix& out);

/// out(i,j) = dot(row_i(a), row_j(b)) — a·bᵀ through the blocked body over
/// bᵀ blocks packed into a per-call stack panel, so the caller never holds
/// the transpose. Assigns every element of the pre-sized `out`.
void matmul_transposed_other_into(const Matrix& a, const Matrix& b,
                                  Matrix& out);

/// out += aᵀ·b, ascending rows of `a` per element with the zero skip —
/// the gradient-determinism primitive (stacked per-sample rows replay a
/// per-sample accumulation loop addition for addition).
void matmul_transposed_self_add(const Matrix& a, const Matrix& b, Matrix& out);

/// Sparse gather GEMM: replays exactly the additions the dense kernel would
/// perform on the densified operand, in the same order (ascending stored
/// columns, explicit zeros skipped) — bit-identical to the dense path.
/// Accumulates into a zeroed, pre-sized `out`.
void sparse_gather_matmul_into(const SparseRowMatrix& a, const Matrix& b,
                               Matrix& out);

/// out += aᵀ·b with `a` sparse — the mirrored gather of the deferred
/// parameter-gradient pass, same bit-identity argument.
void sparse_gather_transposed_self_add(const SparseRowMatrix& a,
                                       const Matrix& b, Matrix& out);

/// One ISA build of the five kernels above (same signatures). Every
/// variant is bit-identical to every other; they differ in vector width.
struct GemmVariant {
  isa::Isa isa;
  void (*matmul_blocked_into)(const Matrix&, const Matrix&, Matrix&);
  void (*matmul_transposed_other_into)(const Matrix&, const Matrix&, Matrix&);
  void (*matmul_transposed_self_add)(const Matrix&, const Matrix&, Matrix&);
  void (*sparse_gather_matmul_into)(const SparseRowMatrix&, const Matrix&,
                                    Matrix&);
  void (*sparse_gather_transposed_self_add)(const SparseRowMatrix&,
                                            const Matrix&, Matrix&);
};

/// The variants this host can run, baseline first (AVX2 second when
/// supported). The free functions above call the isa::selected() one; the
/// kernel property tests call each of these directly.
std::span<const GemmVariant> gemm_variants();

}  // namespace drcell::kernels
