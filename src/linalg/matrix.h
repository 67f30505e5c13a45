// Dense row-major double matrix used throughout the library (neural nets,
// matrix completion, the GP dataset generator).
//
// The class is value-semantic, but the multiply kernels are tuned: matmul is
// blocked/tiled with a raw-pointer inner loop, matmul_into reuses output
// storage across calls, and per-element bounds checks are DRCELL_DCHECKs —
// on in debug/DCHECK builds, compiled out of release hot loops.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/check.h"

namespace drcell {

class Rng;

class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;
  /// rows x cols matrix, zero-initialised (or filled with `fill`).
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    DRCELL_DCHECK_MSG(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    DRCELL_DCHECK_MSG(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  /// Always-checked element access regardless of build mode (boundary code,
  /// parsers, and the naive reference kernels use it).
  double at(std::size_t r, std::size_t c) const {
    DRCELL_CHECK_MSG(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Reshapes to rows x cols, filling with `fill`. Reuses the existing
  /// allocation when capacity allows, so hot loops can recycle workspaces.
  void resize(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// resize() without the fill guarantee: when the shape is already
  /// rows x cols the contents are left untouched, so workspaces whose every
  /// element the caller overwrites skip a redundant zero pass per call.
  void resize_overwrite(std::size_t rows, std::size_t cols) {
    if (rows == rows_ && cols == cols_) return;
    resize(rows, cols);
  }

  /// Mutable view of row r.
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  Matrix transposed() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);
  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }
  bool operator==(const Matrix& other) const = default;

  /// Matrix product this * other (blocked/tiled kernel).
  Matrix matmul(const Matrix& other) const;
  /// Matrix product written into `out`, reusing its storage when already
  /// correctly shaped. `out` must not alias either operand.
  void matmul_into(const Matrix& other, Matrix& out) const;
  /// Benchmark floor: textbook i-j-k product through the always-checked
  /// accessor (strided B walk, bounds check per element). This is the
  /// unoptimised-scalar lower bound the perf gate compares against, NOT the
  /// seed implementation — see matmul_unblocked for that.
  Matrix matmul_naive(const Matrix& other) const;
  /// The seed's actual kernel before this overhaul: single-level ikj with
  /// raw pointers and the zero-skip, unblocked. Retained so the report can
  /// show the blocked kernel's gain over what the repo really shipped.
  Matrix matmul_unblocked(const Matrix& other) const;
  /// thisᵀ * other without materialising the transpose.
  Matrix matmul_transposed_self(const Matrix& other) const;
  /// out += thisᵀ * other, accumulating directly into `out` (must already be
  /// cols x other.cols). Contributions are added in ascending row order of
  /// `this`, which is what makes batched parameter-gradient accumulation
  /// bit-identical to a per-sample loop: stacking per-sample rows and calling
  /// this replays exactly the additions the per-sample path would perform.
  void matmul_transposed_self_add(const Matrix& other, Matrix& out) const;
  /// this * otherᵀ without materialising the transpose: out(i,j) =
  /// dot(row_i, other row_j), k ascending. The kernel packs otherᵀ in small
  /// per-call blocks, so backward passes never build Wᵀ. Written into `out`,
  /// reusing its storage when already correctly shaped; `out` must not alias
  /// either operand.
  void matmul_transposed_other_into(const Matrix& other, Matrix& out) const;
  /// Applies f to every element in place.
  template <typename F>
  Matrix& apply(F&& f) {
    for (double& x : data_) x = f(x);
    return *this;
  }

  /// Largest absolute element; 0 when empty.
  double max_abs() const;
  /// True if any element is NaN or infinite.
  bool has_non_finite() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// rows x cols matrix with i.i.d. standard-normal entries (tests, benches,
/// and factor initialisation share this instead of rolling their own).
Matrix random_normal_matrix(std::size_t rows, std::size_t cols, Rng& rng);

}  // namespace drcell
