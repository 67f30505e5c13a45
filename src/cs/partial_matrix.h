// A partially observed cells x cycles matrix — the input of every data
// inference engine in Sparse MCS (Definition 5 of the paper: infer the
// unsensed entries from the sensed ones).
//
// The matrix maintains incremental per-row and per-column observation lists,
// updated in set()/clear(), so observation queries (counts, index lists,
// mean) cost O(observed) — or O(1) — instead of scanning the dense
// rows x cols grid. At the 1000-cell scale target a window is ~10% observed,
// so the dense scans the seed shipped were an order of magnitude of wasted
// work on every inference call.
//
// The order-sensitive 64-bit fingerprint of the observed content (used by
// the warm-started completion engine to recognise an unchanged window) is
// cached here and invalidated by set()/clear(): one sensing step computes it
// at most once no matter how many engines and quality gates look at the
// window. The cache is a pair of atomics so concurrent committee members may
// race to fill it — both compute the same value, so the race is benign.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace drcell::cs {

class PartialMatrix {
 public:
  PartialMatrix() = default;
  PartialMatrix(std::size_t rows, std::size_t cols);

  PartialMatrix(const PartialMatrix& other);
  PartialMatrix(PartialMatrix&& other) noexcept;
  PartialMatrix& operator=(const PartialMatrix& other) = delete;
  PartialMatrix& operator=(PartialMatrix&& other) noexcept;

  std::size_t rows() const { return values_.rows(); }
  std::size_t cols() const { return values_.cols(); }

  bool observed(std::size_t r, std::size_t c) const {
    return mask_[index(r, c)] != 0;
  }
  /// Value at an observed entry. Reading an unobserved entry is an error.
  double value(std::size_t r, std::size_t c) const;
  /// Marks (r, c) observed with the given value.
  void set(std::size_t r, std::size_t c, double v);
  /// Removes an observation (used by leave-one-out quality assessment).
  void clear(std::size_t r, std::size_t c);

  std::size_t observed_count() const { return observed_count_; }
  std::size_t observed_count_in_col(std::size_t c) const;
  std::size_t observed_count_in_row(std::size_t r) const;
  /// Row indices observed in column c, ascending. The reference stays valid
  /// until the next set()/clear() touching that column.
  const std::vector<std::size_t>& observed_rows_in_col(std::size_t c) const;
  /// Column indices observed in row r, ascending. The reference stays valid
  /// until the next set()/clear() touching that row.
  const std::vector<std::size_t>& observed_cols_in_row(std::size_t r) const;

  /// Mean of all observed values; 0 when nothing is observed. Sums in
  /// row-major observed order, O(observed).
  double observed_mean() const;

  /// Order-sensitive 64-bit hash of the shape and observed entries, cached
  /// until the next mutation. Two windows with equal fingerprints are
  /// treated as identical by the warm-started completion engine (collisions
  /// are a ~2^-64 event per comparison).
  std::uint64_t fingerprint() const;
  /// How many times fingerprint() actually recomputed the hash (cache
  /// misses) over this object's lifetime — instrumentation for the
  /// once-per-cycle regression tests.
  std::size_t fingerprint_computations() const {
    return fp_computations_.load(std::memory_order_relaxed);
  }

  /// Underlying value matrix (unobserved entries are 0 — do not read them
  /// directly; use value()/observed()).
  const Matrix& raw_values() const { return values_; }

 private:
  std::size_t index(std::size_t r, std::size_t c) const {
    DRCELL_CHECK_MSG(r < rows() && c < cols(),
                     "PartialMatrix index out of range");
    return r * cols() + c;
  }
  void invalidate_fingerprint() {
    fp_valid_.store(false, std::memory_order_release);
  }

  Matrix values_;
  std::vector<std::uint8_t> mask_;
  std::size_t observed_count_ = 0;
  // Incremental observation lists, ascending; kept consistent with mask_
  // through every set()/clear() (including LOO clear-then-restore churn).
  std::vector<std::vector<std::size_t>> row_obs_;  // per row: observed cols
  std::vector<std::vector<std::size_t>> col_obs_;  // per col: observed rows
  // Lazily computed fingerprint cache. Concurrent readers may both miss and
  // recompute; they store the same value, so relaxed stores behind an
  // acquire/release valid flag are sufficient.
  mutable std::atomic<std::uint64_t> fp_{0};
  mutable std::atomic<bool> fp_valid_{false};
  mutable std::atomic<std::size_t> fp_computations_{0};
};

}  // namespace drcell::cs
