// The "reference" compute backend: the retained pre-optimisation kernels
// behind the backend interface. Dense matmul is the seed's unblocked ikj
// loop; the transposed forms are plain per-element loop nests; the sparse
// pair is the j-outer gather; the LSTM gates are the scalar std::tanh /
// nn::sigmoid passes.
//
// Every matrix kernel here upholds the exact-arithmetic contract
// (linalg/backend.h): per output element the additions run in ascending-k
// order, zero terms are skipped, and contributions accumulate directly into
// the output element — so each kernel is bit-identical to its native
// counterpart even though the loop nests differ, and all the bit-identity
// suites (sparse-vs-dense, batched-vs-per-sample, worker invariance) hold
// under this backend unchanged. Only the gate nonlinearities diverge from
// native (std:: vs fastmath, within the documented ≤1e-12 fastmath bound),
// which is what tolerance_vs_native() covers.
#include "linalg/backend.h"
#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "nn/lstm.h"

namespace drcell {

namespace {

class ReferenceBackend final : public ComputeBackend {
 public:
  const char* name() const override { return "reference"; }
  bool exact_contract() const override { return true; }
  // Matrix kernels are exact vs native; the std:: gate passes diverge from
  // the fused fastmath ones by ≤1e-12 relative per activation, so 1e-10
  // bounds any single conformance forward comfortably.
  double tolerance_vs_native() const override { return 1e-10; }

  void matmul_into(const Matrix& a_m, const Matrix& b_m,
                   Matrix& out) const override {
    // The seed's kernel before the blocked overhaul: single-level ikj with
    // raw pointers and the zero-skip, accumulating row by row.
    const std::size_t rows = a_m.rows();
    const std::size_t cols = a_m.cols();
    const std::size_t n = b_m.cols();
    const double* a = a_m.data().data();
    const double* b = b_m.data().data();
    double* o = out.data().data();
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t k = 0; k < cols; ++k) {
        const double aik = a[i * cols + k];
        if (aik == 0.0) continue;
        const double* brow = b + k * n;
        double* orow = o + i * n;
        for (std::size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
      }
    }
  }

  void matmul_transposed_other_into(const Matrix& a_m, const Matrix& b_m,
                                    Matrix& out) const override {
    // Textbook per-element dot over contiguous rows (no 4-wide unroll).
    const std::size_t rows = a_m.rows();
    const std::size_t n = b_m.rows();
    const std::size_t depth = a_m.cols();
    const double* a = a_m.data().data();
    const double* b = b_m.data().data();
    double* o = out.data().data();
    for (std::size_t i = 0; i < rows; ++i) {
      const double* arow = a + i * depth;
      for (std::size_t j = 0; j < n; ++j) {
        const double* brow = b + j * depth;
        double s = 0.0;
        for (std::size_t k = 0; k < depth; ++k) {
          const double aik = arow[k];
          if (aik == 0.0) continue;
          s += aik * brow[k];
        }
        o[i * n + j] = s;
      }
    }
  }

  void matmul_transposed_self_add(const Matrix& a_m, const Matrix& b_m,
                                  Matrix& out) const override {
    // Per-element nest (i, j outer; k ascending) accumulating directly into
    // out(i, j) — NOT into a local sum first, which would break the
    // batched-vs-per-sample replay (out + (t1+t2) != (out+t1)+t2).
    const std::size_t rows = a_m.rows();
    const std::size_t cols = a_m.cols();
    const std::size_t n = b_m.cols();
    const double* a = a_m.data().data();
    const double* b = b_m.data().data();
    double* o = out.data().data();
    for (std::size_t i = 0; i < cols; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double& oij = o[i * n + j];
        for (std::size_t k = 0; k < rows; ++k) {
          const double aki = a[k * cols + i];
          if (aki == 0.0) continue;
          oij += aki * b[k * n + j];
        }
      }
    }
  }

  void sparse_matmul_into(const SparseRowMatrix& a, const Matrix& b,
                          Matrix& out) const override {
    // j-outer gather: same additions per output element, in the same
    // ascending stored-entry order, as the native row-at-a-time gather.
    const std::size_t n = b.cols();
    for (std::size_t r = 0; r < a.rows(); ++r) {
      const auto cols = a.row_indices(r);
      const auto vals = a.row_values(r);
      double* orow = out.row(r).data();
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t e = 0; e < cols.size(); ++e) {
          const double v = vals[e];
          if (v == 0.0) continue;
          orow[j] += v * b(cols[e], j);
        }
      }
    }
  }

  void sparse_matmul_transposed_self_add(const SparseRowMatrix& a,
                                         const Matrix& b,
                                         Matrix& out) const override {
    // Mirrored gather, entry-at-a-time like native (k must stay the outer
    // loop: out row `cols[e]` collects contributions from every input row
    // k that stores that column, in ascending-k order).
    const std::size_t n = b.cols();
    for (std::size_t k = 0; k < a.rows(); ++k) {
      const auto cols = a.row_indices(k);
      const auto vals = a.row_values(k);
      for (std::size_t e = 0; e < cols.size(); ++e) {
        const double v = vals[e];
        if (v == 0.0) continue;
        double* orow = out.row(cols[e]).data();
        for (std::size_t j = 0; j < n; ++j) orow[j] += v * b(k, j);
      }
    }
  }

  void lstm_gate_forward(const Matrix& z, const Matrix* c_prev, Matrix& gates,
                         Matrix& c, Matrix& tanh_c, Matrix& h) const override {
    nn::lstm_gate_forward_reference(z, c_prev, gates, c, tanh_c, h);
  }
  void lstm_gate_backward(const Matrix& gates, const Matrix& tanh_c,
                          const Matrix* c_prev, const Matrix& dh,
                          const Matrix& dc_next, Matrix& dz,
                          Matrix& dc_prev) const override {
    nn::lstm_gate_backward_reference(gates, tanh_c, c_prev, dh, dc_next, dz,
                                     dc_prev);
  }
};

}  // namespace

std::unique_ptr<ComputeBackend> make_reference_backend() {
  return std::make_unique<ReferenceBackend>();
}

}  // namespace drcell
