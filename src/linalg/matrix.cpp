#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "linalg/backend.h"
#include "util/rng.h"

namespace drcell {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::resize(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

std::span<double> Matrix::row(std::size_t r) {
  DRCELL_DCHECK(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  DRCELL_DCHECK(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  DRCELL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  DRCELL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out;
  matmul_into(other, out);
  return out;
}

void Matrix::matmul_into(const Matrix& other, Matrix& out) const {
  DRCELL_CHECK_MSG(cols_ == other.rows_, "matmul shape mismatch");
  DRCELL_CHECK_MSG(&out != this && &out != &other,
                   "matmul_into output must not alias an operand");
  out.resize(rows_, other.cols_);
  BackendRegistry::active().matmul_into(*this, other, out);
}

Matrix Matrix::matmul_naive(const Matrix& other) const {
  DRCELL_CHECK_MSG(cols_ == other.rows_, "matmul shape mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < other.cols_; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < cols_; ++k) s += at(i, k) * other.at(k, j);
      out(i, j) = s;
    }
  return out;
}

Matrix Matrix::matmul_unblocked(const Matrix& other) const {
  DRCELL_CHECK_MSG(cols_ == other.rows_, "matmul shape mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = data_[i * cols_ + k];
      if (aik == 0.0) continue;
      const double* brow = other.data_.data() + k * other.cols_;
      double* orow = out.data_.data() + i * other.cols_;
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix Matrix::matmul_transposed_self(const Matrix& other) const {
  Matrix out(cols_, other.cols());
  matmul_transposed_self_add(other, out);
  return out;
}

void Matrix::matmul_transposed_self_add(const Matrix& other,
                                        Matrix& out) const {
  DRCELL_CHECK_MSG(rows_ == other.rows(), "matmul_transposed_self mismatch");
  DRCELL_CHECK_MSG(out.rows() == cols_ && out.cols() == other.cols(),
                   "matmul_transposed_self_add output shape mismatch");
  DRCELL_CHECK_MSG(&out != this && &out != &other,
                   "matmul_transposed_self_add output must not alias an "
                   "operand");
  BackendRegistry::active().matmul_transposed_self_add(*this, other, out);
}

void Matrix::matmul_transposed_other_into(const Matrix& other,
                                          Matrix& out) const {
  DRCELL_CHECK_MSG(cols_ == other.cols(),
                   "matmul_transposed_other shape mismatch");
  DRCELL_CHECK_MSG(&out != this && &out != &other,
                   "matmul_transposed_other output must not alias an "
                   "operand");
  out.resize_overwrite(rows_, other.rows_);  // every element is assigned
  BackendRegistry::active().matmul_transposed_other_into(*this, other, out);
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

bool Matrix::has_non_finite() const {
  for (double x : data_)
    if (!std::isfinite(x)) return true;
  return false;
}

Matrix random_normal_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& x : m.data()) x = rng.normal();
  return m;
}

}  // namespace drcell
