#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "linalg/backend.h"
#include "util/rng.h"

namespace drcell {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    DRCELL_CHECK_MSG(r.size() == cols_, "ragged initialiser list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::column(std::span<const double> data) {
  Matrix m(data.size(), 1);
  for (std::size_t i = 0; i < data.size(); ++i) m(i, 0) = data[i];
  return m;
}

Matrix Matrix::diagonal(std::span<const double> data) {
  Matrix m(data.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) m(i, i) = data[i];
  return m;
}

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

std::vector<double> Matrix::col(std::size_t c) const {
  DRCELL_CHECK(c < cols_);
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

void Matrix::set_col(std::size_t c, std::span<const double> values) {
  DRCELL_CHECK(c < cols_ && values.size() == rows_);
  for (std::size_t r = 0; r < rows_; ++r) data_[r * cols_ + c] = values[r];
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

Matrix Matrix::matmul_transposed_other(const Matrix& other) const {
  Matrix out;
  matmul_transposed_other_into(other, out);
  return out;
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

Matrix Matrix::hadamard(const Matrix& other) const {
  DRCELL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] *= other.data_[i];
  return out;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

double Matrix::sum() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

bool Matrix::has_non_finite() const {
  for (double x : data_)
    if (!std::isfinite(x)) return true;
  return false;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    ss << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c) ss << ", ";
      ss << (*this)(r, c);
    }
    ss << (r + 1 == rows_ ? "]]" : "]\n");
  }
  return ss.str();
}

Matrix random_normal_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& x : m.data()) x = rng.normal();
  return m;
}

std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  DRCELL_CHECK(a.cols() == x.size());
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    double s = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c) s += row[c] * x[c];
    y[r] = s;
  }
  return y;
}

double dot(std::span<const double> a, std::span<const double> b) {
  DRCELL_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> v) { return std::sqrt(dot(v, v)); }

}  // namespace drcell
