#include "linalg/sparse_matrix.h"

#include <algorithm>

#include "linalg/backend.h"

namespace drcell {

void SparseRowMatrix::reset(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  offsets_.clear();
  idx_.clear();
  val_.clear();
}

void SparseRowMatrix::append(std::size_t row, std::size_t col, double value) {
  DRCELL_DCHECK_MSG(row < rows_ && col < cols_,
                    "sparse entry out of range");
  const std::size_t opened = offsets_.size();
  DRCELL_DCHECK_MSG(row + 1 >= opened,
                    "sparse rows must be appended in non-decreasing order");
  if (row >= opened) {
    // Open row `row` (rows opened and immediately passed over stay empty).
    for (std::size_t r = opened; r <= row; ++r)
      offsets_.push_back(idx_.size());
  } else if (offsets_[row] < idx_.size()) {
    DRCELL_DCHECK_MSG(col > idx_.back(),
                      "sparse columns must ascend within a row");
  }
  idx_.push_back(static_cast<std::uint32_t>(col));
  val_.push_back(value);
}

std::span<const std::uint32_t> SparseRowMatrix::row_indices(
    std::size_t r) const {
  const std::size_t b = row_begin(r);
  return {idx_.data() + b, row_end(r) - b};
}

std::span<const double> SparseRowMatrix::row_values(std::size_t r) const {
  const std::size_t b = row_begin(r);
  return {val_.data() + b, row_end(r) - b};
}

void SparseRowMatrix::to_dense(Matrix& out) const {
  out.resize(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto cols = row_indices(r);
    const auto vals = row_values(r);
    double* orow = out.row(r).data();
    for (std::size_t e = 0; e < cols.size(); ++e) orow[cols[e]] = vals[e];
  }
}

void SparseRowMatrix::matmul_into(const Matrix& other, Matrix& out) const {
  DRCELL_CHECK_MSG(cols_ == other.rows(), "sparse matmul shape mismatch");
  DRCELL_CHECK_MSG(&out != &other,
                   "sparse matmul output must not alias an operand");
  out.resize(rows_, other.cols());
  BackendRegistry::active().sparse_matmul_into(*this, other, out);
}

void SparseRowMatrix::matmul_transposed_self_add(const Matrix& other,
                                                 Matrix& out) const {
  DRCELL_CHECK_MSG(rows_ == other.rows(),
                   "sparse matmul_transposed_self mismatch");
  DRCELL_CHECK_MSG(out.rows() == cols_ && out.cols() == other.cols(),
                   "sparse matmul_transposed_self_add output shape mismatch");
  DRCELL_CHECK_MSG(&out != &other,
                   "sparse matmul_transposed_self_add output must not alias "
                   "an operand");
  BackendRegistry::active().sparse_matmul_transposed_self_add(*this, other,
                                                              out);
}

}  // namespace drcell
