// The dense and sparse-gather GEMM kernels behind the "native" backend.
//
// Every kernel body is written once (always-inline) and built twice: plain
// for the baseline ISA and inside a DRCELL_TARGET_AVX2 wrapper; a
// function-local static table picks one on first use (util/isa.h). The TU
// is compiled with -ffp-contract=off (CMakeLists.txt), so neither variant
// fuses a mul and an add.
//
// The exact-arithmetic contract (linalg/backend.h) fixes what each output
// element sees: it starts from its current value and adds aik·b in
// ascending k, skipping the term whenever aik == 0.0 (per row and k). The
// register strips below hold 16 consecutive outputs of one row (of two rows
// under AVX2) in registers while k runs over a tile, and tiles run in
// ascending kk. Every element therefore still receives exactly its own
// additions, in exactly that order; the strips only compute independent
// elements side by side. That is why all variants agree bit for bit with
// each other and with the reference backend's plain loop nests, and why an
// output row depends only on its own input row (the batched-training
// determinism contract).
#include "linalg/kernels.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <utility>

namespace drcell::kernels {

namespace {

// Cache-blocking tiles: a kTileK x kTileJ block of B (32 KiB) stays in L1
// while every row of a kTileI row tile runs its strips over it.
constexpr std::size_t kTileI = 32;
constexpr std::size_t kTileK = 32;
constexpr std::size_t kTileJ = 128;
// Row stride of a packed B panel: padded off the power of two so the rows
// a strip walks do not all map to the same few L1 sets.
constexpr std::size_t kPanelLd = kTileJ + 8;
// A row-major B block is packed when the row tile's nonzero A terms read
// each of its rows at least this many times on average (dense tiles of at
// least 8 rows); sparser tiles read it in place.
constexpr std::size_t kPackUses = 8;

// The register types: the baseline build works in xmm pairs of doubles
// (SSE2), the AVX2 build in ymm quads. Each body is a template over the
// vector type V. Loads and stores go through memcpy, so no alignment is
// assumed.
typedef double V2 __attribute__((vector_size(16)));
typedef double V4 __attribute__((vector_size(32)));
template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
// Rows per dense register tile: a 16-wide strip is 8 xmm or 4 ymm
// accumulators, so the AVX2 build runs two rows side by side to keep eight
// independent add chains in flight.
template <class V>
constexpr std::size_t kRows = kLanes<V> == 4 ? 2 : 1;

/// The dense register tile: C(r, [0, W)) += A(r, k) · B(k, [0, W)) for
/// r < R, k ∈ [0, kn), skipping each (r, k) with A(r, k) == 0.0. The R·W
/// sums stay in registers across the k loop. A(r, k) = a[r·a_is + k·a_ks],
/// B(k, ·) = b + k·ldb, C(r, ·) = c + r·ldc.
template <class V, std::size_t W, std::size_t R>
DRCELL_KERNEL_INLINE void strip(const double* a, std::size_t a_is,
                                std::size_t a_ks, std::size_t kn,
                                const double* b, std::size_t ldb, double* c,
                                std::size_t ldc) {
  constexpr std::size_t L = kLanes<V>;
  V acc[R][W / L];
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t v = 0; v < W / L; ++v)
      std::memcpy(&acc[r][v], c + r * ldc + L * v, sizeof(V));
  for (std::size_t k = 0; k < kn; ++k) {
    const double* brow = b + k * ldb;
    for (std::size_t r = 0; r < R; ++r) {
      const double aik = a[r * a_is + k * a_ks];
      if (aik == 0.0) continue;
      for (std::size_t v = 0; v < W / L; ++v) {
        V bv;
        std::memcpy(&bv, brow + L * v, sizeof(V));
        acc[r][v] += aik * bv;
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t v = 0; v < W / L; ++v)
      std::memcpy(c + r * ldc + L * v, &acc[r][v], sizeof(V));
}

/// R output rows of a tile over its n columns: 16-wide strips, then at most
/// one 8-wide and one 4-wide strip, then scalar columns.
template <class V, std::size_t R>
DRCELL_KERNEL_INLINE void row_strips(const double* a, std::size_t a_is,
                                     std::size_t a_ks, std::size_t kn,
                                     const double* b, std::size_t ldb,
                                     double* c, std::size_t ldc,
                                     std::size_t n) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16)
    strip<V, 16, R>(a, a_is, a_ks, kn, b + j, ldb, c + j, ldc);
  if (j + 8 <= n) {
    strip<V, 8, R>(a, a_is, a_ks, kn, b + j, ldb, c + j, ldc);
    j += 8;
  }
  if (j + 4 <= n) {
    strip<V, 4, R>(a, a_is, a_ks, kn, b + j, ldb, c + j, ldc);
    j += 4;
  }
  if (j == n) return;
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t k = 0; k < kn; ++k) {
      const double aik = a[r * a_is + k * a_ks];
      if (aik == 0.0) continue;
      const double* brow = b + k * ldb;
      double* crow = c + r * ldc;
      for (std::size_t jt = j; jt < n; ++jt) crow[jt] += aik * brow[jt];
    }
}

/// The B block of one (k-tile, j-tile) pair of a row-major B. Read in
/// place when few terms use it; copied into the panel when the tile's rows
/// reuse it enough to pay for the copy, because B rows whose byte stride is
/// a large power of two (256 columns = 2 KiB) would otherwise map a strip's
/// loads onto a few L1 sets.
struct RowMajorB {
  const double* b;
  std::size_t ldb;
  double* panel;
  DRCELL_KERNEL_INLINE std::pair<const double*, std::size_t> operator()(
      std::size_t kk, std::size_t kn, std::size_t jj, std::size_t nj,
      bool reused) const {
    const double* block = b + kk * ldb + jj;
    if (!reused) return {block, ldb};
    for (std::size_t k = 0; k < kn; ++k)
      std::memcpy(panel + k * kPanelLd, block + k * ldb, nj * sizeof(double));
    return {panel, kPanelLd};
  }
};

/// The B block of one (k-tile, j-tile) pair of B = bᵀ (b row-major with
/// `depth` columns), always packed into the panel.
struct PackedTransposeB {
  const double* b;
  std::size_t depth;
  double* panel;
  DRCELL_KERNEL_INLINE std::pair<const double*, std::size_t> operator()(
      std::size_t kk, std::size_t kn, std::size_t jj, std::size_t nj,
      bool /*reused*/) const {
    for (std::size_t j = 0; j < nj; ++j) {
      const double* bj = b + (jj + j) * depth + kk;
      for (std::size_t k = 0; k < kn; ++k) panel[k * kPanelLd + j] = bj[k];
    }
    return {panel, kPanelLd};
  }
};

/// C(i, j) += Σ_k A(i, k)·B(k, j) for i < m, j < n, k < depth, k ascending
/// per element, A(i, k) == 0.0 skipped. A(i, k) = a[i·a_is + k·a_ks]
/// (row-major A, or Aᵀ read in place), C(i, j) = c[i·ldc + j], and
/// block_b(kk, kn, jj, nj, reused) yields the (pointer, row stride) of the
/// B block at row kk, column jj; `reused` says the row tile's nonzero terms
/// read each of its rows kPackUses times on average.
template <class V, class BlockB>
DRCELL_KERNEL_INLINE void gemm_blocked(std::size_t m, std::size_t n,
                                       std::size_t depth, const double* a,
                                       std::size_t a_is, std::size_t a_ks,
                                       const BlockB& block_b, double* c,
                                       std::size_t ldc) {
  constexpr std::size_t R = kRows<V>;
  for (std::size_t ii = 0; ii < m; ii += kTileI) {
    const std::size_t mi = std::min(m, ii + kTileI) - ii;
    for (std::size_t kk = 0; kk < depth; kk += kTileK) {
      const std::size_t kn = std::min(depth, kk + kTileK) - kk;
      const double* at = a + ii * a_is + kk * a_ks;
      std::size_t terms = 0;
      for (std::size_t i = 0; i < mi; ++i)
        for (std::size_t k = 0; k < kn; ++k)
          terms += at[i * a_is + k * a_ks] != 0.0 ? 1 : 0;
      const bool reused = terms >= kPackUses * kn;
      for (std::size_t jj = 0; jj < n; jj += kTileJ) {
        const std::size_t nj = std::min(n, jj + kTileJ) - jj;
        const auto [bp, ldb] = block_b(kk, kn, jj, nj, reused);
        double* ct = c + ii * ldc + jj;
        std::size_t i = 0;
        for (; i + R <= mi; i += R)
          row_strips<V, R>(at + i * a_is, a_is, a_ks, kn, bp, ldb,
                           ct + i * ldc, ldc, nj);
        for (; i < mi; ++i)
          row_strips<V, 1>(at + i * a_is, a_is, a_ks, kn, bp, ldb,
                           ct + i * ldc, ldc, nj);
      }
    }
  }
}

template <class V>
DRCELL_KERNEL_INLINE void matmul_blocked_body(const Matrix& a, const Matrix& b,
                                              Matrix& out) {
  std::array<double, kTileK * kPanelLd> panel;
  gemm_blocked<V>(a.rows(), b.cols(), a.cols(), a.data().data(), a.cols(), 1,
                  RowMajorB{b.data().data(), b.cols(), panel.data()},
                  out.data().data(), b.cols());
}

/// out += aᵀ·b: the blocked body with A(i, k) = a(k, i) read in place, so
/// each output strip is loaded and stored once per k-tile instead of once
/// per row of `a`.
template <class V>
DRCELL_KERNEL_INLINE void transposed_self_add_body(const Matrix& a,
                                                   const Matrix& b,
                                                   Matrix& out) {
  std::array<double, kTileK * kPanelLd> panel;
  gemm_blocked<V>(a.cols(), b.cols(), a.rows(), a.data().data(), 1, a.cols(),
                  RowMajorB{b.data().data(), b.cols(), panel.data()},
                  out.data().data(), b.cols());
}

/// out = a·bᵀ: zero `out`, then run the blocked body over bᵀ blocks packed
/// into a stack panel (per call, so per thread). Each element sees
/// 0.0 + Σ_k aik·b(j, k) in ascending k — the same recurrence as a per-
/// element dot product seeded with 0.0 — and the caller never holds Wᵀ.
template <class V>
DRCELL_KERNEL_INLINE void transposed_other_body(const Matrix& a,
                                                const Matrix& b,
                                                Matrix& out) {
  std::fill(out.data().begin(), out.data().end(), 0.0);
  std::array<double, kTileK * kPanelLd> panel;
  gemm_blocked<V>(a.rows(), b.rows(), a.cols(), a.data().data(), a.cols(), 1,
                  PackedTransposeB{b.data().data(), b.cols(), panel.data()},
                  out.data().data(), b.rows());
}

/// Gather strip: c[0, W) += v_e · B(cols[e], ·) over the stored entries of
/// one sparse row, in stored (ascending-column) order, explicit zeros
/// skipped — the additions the dense kernel performs on the densified row,
/// in the same order.
template <class V, std::size_t W>
DRCELL_KERNEL_INLINE void gather_strip(std::span<const std::uint32_t> cols,
                                       std::span<const double> vals,
                                       const double* b, std::size_t ldb,
                                       double* c) {
  constexpr std::size_t L = kLanes<V>;
  V acc[W / L];
  for (std::size_t v = 0; v < W / L; ++v)
    std::memcpy(&acc[v], c + L * v, sizeof(V));
  for (std::size_t e = 0; e < cols.size(); ++e) {
    const double val = vals[e];
    if (val == 0.0) continue;
    const double* brow = b + cols[e] * ldb;
    for (std::size_t v = 0; v < W / L; ++v) {
      V bv;
      std::memcpy(&bv, brow + L * v, sizeof(V));
      acc[v] += val * bv;
    }
  }
  for (std::size_t v = 0; v < W / L; ++v)
    std::memcpy(c + L * v, &acc[v], sizeof(V));
}

/// Sparse gather: each output row runs its strips over the row's stored
/// entries in chunks of kTileK, the chunks in order — the sparse twin of the
/// dense k-tile, so a chunk's B rows stay cached (and their pages in the
/// TLB) while the row's strips sweep them.
template <class V>
DRCELL_KERNEL_INLINE void sparse_matmul_body(const SparseRowMatrix& a,
                                             const Matrix& b_m, Matrix& out) {
  const std::size_t n = b_m.cols();
  const double* b = b_m.data().data();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row_cols = a.row_indices(r);
    const auto row_vals = a.row_values(r);
    double* c = out.data().data() + r * n;
    for (std::size_t e0 = 0; e0 < row_cols.size(); e0 += kTileK) {
      const std::size_t chunk = std::min(row_cols.size() - e0, kTileK);
      const auto cols = row_cols.subspan(e0, chunk);
      const auto vals = row_vals.subspan(e0, chunk);
      std::size_t j = 0;
      for (; j + 16 <= n; j += 16)
        gather_strip<V, 16>(cols, vals, b + j, n, c + j);
      if (j + 8 <= n) {
        gather_strip<V, 8>(cols, vals, b + j, n, c + j);
        j += 8;
      }
      if (j + 4 <= n) {
        gather_strip<V, 4>(cols, vals, b + j, n, c + j);
        j += 4;
      }
      if (j == n) continue;
      for (std::size_t e = 0; e < chunk; ++e) {
        const double val = vals[e];
        if (val == 0.0) continue;
        const double* brow = b + cols[e] * n;
        for (std::size_t jt = j; jt < n; ++jt) c[jt] += val * brow[jt];
      }
    }
  }
}

/// out += aᵀ·b with `a` sparse: input row k adds v_e · b(k, ·) into output
/// row cols[e] for each stored entry, k ascending, so every output element
/// receives its additions in ascending k exactly as the dense transposed
/// kernel does. The output rows are scattered, so each is updated whole,
/// one vector at a time, while b's row k stays in L1.
template <class V>
DRCELL_KERNEL_INLINE void sparse_transposed_self_add_body(
    const SparseRowMatrix& a, const Matrix& b, Matrix& out) {
  constexpr std::size_t L = kLanes<V>;
  const std::size_t n = b.cols();
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const auto cols = a.row_indices(k);
    const auto vals = a.row_values(k);
    const double* brow = b.data().data() + k * n;
    for (std::size_t e = 0; e < cols.size(); ++e) {
      const double val = vals[e];
      if (val == 0.0) continue;
      double* orow = out.data().data() + cols[e] * n;
      std::size_t j = 0;
      for (; j + L <= n; j += L) {
        V ov, bv;
        std::memcpy(&ov, orow + j, sizeof(V));
        std::memcpy(&bv, brow + j, sizeof(V));
        ov += val * bv;
        std::memcpy(orow + j, &ov, sizeof(V));
      }
      for (; j < n; ++j) orow[j] += val * brow[j];
    }
  }
}

// One function per (kernel, ISA): the baseline build and the AVX2 build of
// the same inlined body.
#define DRCELL_GEMM_VARIANT(suffix, attr, V)                                  \
  attr void matmul_blocked_##suffix(const Matrix& a, const Matrix& b,         \
                                    Matrix& out) {                            \
    matmul_blocked_body<V>(a, b, out);                                        \
  }                                                                           \
  attr void transposed_other_##suffix(const Matrix& a, const Matrix& b,       \
                                      Matrix& out) {                          \
    transposed_other_body<V>(a, b, out);                                      \
  }                                                                           \
  attr void transposed_self_add_##suffix(const Matrix& a, const Matrix& b,    \
                                         Matrix& out) {                       \
    transposed_self_add_body<V>(a, b, out);                                   \
  }                                                                           \
  attr void sparse_matmul_##suffix(const SparseRowMatrix& a,                  \
                                   const Matrix& b, Matrix& out) {            \
    sparse_matmul_body<V>(a, b, out);                                         \
  }                                                                           \
  attr void sparse_transposed_self_add_##suffix(const SparseRowMatrix& a,     \
                                                const Matrix& b,              \
                                                Matrix& out) {                \
    sparse_transposed_self_add_body<V>(a, b, out);                            \
  }

DRCELL_GEMM_VARIANT(baseline, , V2)
#if DRCELL_HAVE_AVX2_VARIANT
DRCELL_GEMM_VARIANT(avx2, DRCELL_TARGET_AVX2, V4)
#endif
#undef DRCELL_GEMM_VARIANT

constexpr GemmVariant kVariants[] = {
    {isa::Isa::kBaseline, matmul_blocked_baseline, transposed_other_baseline,
     transposed_self_add_baseline, sparse_matmul_baseline,
     sparse_transposed_self_add_baseline},
#if DRCELL_HAVE_AVX2_VARIANT
    {isa::Isa::kAvx2, matmul_blocked_avx2, transposed_other_avx2,
     transposed_self_add_avx2, sparse_matmul_avx2,
     sparse_transposed_self_add_avx2},
#endif
};

}  // namespace

std::span<const GemmVariant> gemm_variants() {
  return isa::host_variants(kVariants);
}

namespace {

/// The selected variant: the last one the host supports.
const GemmVariant& selected_variant() {
  static const GemmVariant& variant = gemm_variants().back();
  return variant;
}

}  // namespace

void matmul_blocked_into(const Matrix& a, const Matrix& b, Matrix& out) {
  selected_variant().matmul_blocked_into(a, b, out);
}

void matmul_transposed_other_into(const Matrix& a, const Matrix& b,
                                  Matrix& out) {
  selected_variant().matmul_transposed_other_into(a, b, out);
}

void matmul_transposed_self_add(const Matrix& a, const Matrix& b,
                                Matrix& out) {
  selected_variant().matmul_transposed_self_add(a, b, out);
}

void sparse_gather_matmul_into(const SparseRowMatrix& a, const Matrix& b,
                               Matrix& out) {
  selected_variant().sparse_gather_matmul_into(a, b, out);
}

void sparse_gather_transposed_self_add(const SparseRowMatrix& a,
                                       const Matrix& b, Matrix& out) {
  selected_variant().sparse_gather_transposed_self_add(a, b, out);
}

}  // namespace drcell::kernels
