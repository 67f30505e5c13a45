// Sparse row-major matrix for the near-one-hot RL state sequences.
//
// The DRQN's per-step inputs are selection vectors: at the 10,000-cell
// metro tier a [32 x 10000] step matrix holds a few hundred ones in 320k
// entries, yet the dense x·Wx kernel still loads and tests every element.
// SparseRowMatrix stores each row as an ascending (column, value) list so
// the input GEMM becomes a gather: for every stored entry, accumulate
// value · W.row(column) into the output row.
//
// Bit-identity contract (tests/sparse_gather_test.cpp): the dense kernels
// accumulate each output element in ascending-k order and skip aik == 0.0
// terms, so a gather over ascending column indices — skipping explicit
// zeros the same way — performs exactly the additions the dense kernel
// performs, in the same order. matmul_into here is bit-identical to
// Matrix::matmul_into on the densified operand, and
// matmul_transposed_self_add to its dense counterpart (rows walked in
// ascending order, entries within a row ascending).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace drcell {

class SparseRowMatrix {
 public:
  SparseRowMatrix() = default;
  SparseRowMatrix(std::size_t rows, std::size_t cols) { reset(rows, cols); }

  /// Reshapes to rows x cols and drops all entries. Reuses the entry
  /// storage, so per-minibatch workspaces do not reallocate.
  void reset(std::size_t rows, std::size_t cols);

  /// Appends one entry. Rows must be appended in non-decreasing order and
  /// columns in strictly ascending order within a row (the order the gather
  /// kernels rely on for bit-identity with the dense kernels).
  void append(std::size_t row, std::size_t col, double value);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return idx_.size(); }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Ascending column indices / matching values of row r.
  std::span<const std::uint32_t> row_indices(std::size_t r) const;
  std::span<const double> row_values(std::size_t r) const;

  /// Densifies into `out` (resized to rows x cols, untouched entries 0).
  void to_dense(Matrix& out) const;

  /// out = this · other via row gather: for each stored entry (r, k, v),
  /// out.row(r) += v · other.row(k). Bit-identical to
  /// Matrix::matmul_into(other, out) on the densified left operand.
  void matmul_into(const Matrix& other, Matrix& out) const;

  /// out += thisᵀ · other, accumulating in ascending row order of `this` —
  /// bit-identical to Matrix::matmul_transposed_self_add on the densified
  /// operand (the batched parameter-gradient contract).
  void matmul_transposed_self_add(const Matrix& other, Matrix& out) const;

 private:
  // offsets_ holds one entry per *opened* row (pushed the moment append()
  // first reaches that row): offsets_[r] is the start of row r's entries,
  // its end is the next opened row's start (or idx_.size() for the last
  // opened row). Rows at or past offsets_.size() are empty. O(1) amortised
  // appends, reads valid at any time.
  std::size_t row_begin(std::size_t r) const {
    DRCELL_DCHECK(r < rows_);
    return r < offsets_.size() ? offsets_[r] : idx_.size();
  }
  std::size_t row_end(std::size_t r) const {
    DRCELL_DCHECK(r < rows_);
    return r + 1 < offsets_.size() ? offsets_[r + 1] : idx_.size();
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> idx_;
  std::vector<double> val_;
};

}  // namespace drcell
