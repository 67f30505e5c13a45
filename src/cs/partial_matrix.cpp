#include "cs/partial_matrix.h"

#include <algorithm>
#include <bit>

namespace drcell::cs {

namespace {
/// Inserts v into a sorted index list (no-op precondition: v absent).
void sorted_insert(std::vector<std::size_t>& list, std::size_t v) {
  list.insert(std::lower_bound(list.begin(), list.end(), v), v);
}

/// Removes v from a sorted index list (precondition: v present).
void sorted_erase(std::vector<std::size_t>& list, std::size_t v) {
  list.erase(std::lower_bound(list.begin(), list.end(), v));
}
}  // namespace

PartialMatrix::PartialMatrix(std::size_t rows, std::size_t cols)
    : values_(rows, cols),
      mask_(rows * cols, 0),
      row_obs_(rows),
      col_obs_(cols) {}

PartialMatrix::PartialMatrix(const PartialMatrix& other)
    : values_(other.values_),
      mask_(other.mask_),
      observed_count_(other.observed_count_),
      row_obs_(other.row_obs_),
      col_obs_(other.col_obs_) {
  // Valid flag first (acquire), value only behind it — reading fp_ before
  // fp_valid_ could capture a stale hash published as valid by a racing
  // fingerprint() on `other`. The new object is unshared, so its own
  // stores can be relaxed.
  if (other.fp_valid_.load(std::memory_order_acquire)) {
    fp_.store(other.fp_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
    fp_valid_.store(true, std::memory_order_relaxed);
  }
}

PartialMatrix::PartialMatrix(PartialMatrix&& other) noexcept
    : values_(std::move(other.values_)),
      mask_(std::move(other.mask_)),
      observed_count_(other.observed_count_),
      row_obs_(std::move(other.row_obs_)),
      col_obs_(std::move(other.col_obs_)),
      fp_computations_(
          other.fp_computations_.load(std::memory_order_relaxed)) {
  if (other.fp_valid_.load(std::memory_order_acquire)) {
    fp_.store(other.fp_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
    fp_valid_.store(true, std::memory_order_relaxed);
  }
}

PartialMatrix& PartialMatrix::operator=(PartialMatrix&& other) noexcept {
  if (this == &other) return *this;
  values_ = std::move(other.values_);
  mask_ = std::move(other.mask_);
  observed_count_ = other.observed_count_;
  row_obs_ = std::move(other.row_obs_);
  col_obs_ = std::move(other.col_obs_);
  if (other.fp_valid_.load(std::memory_order_acquire)) {
    fp_.store(other.fp_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
    fp_valid_.store(true, std::memory_order_relaxed);
  } else {
    fp_valid_.store(false, std::memory_order_relaxed);
  }
  // Like the move constructor: the counter travels with the content.
  fp_computations_.store(
      other.fp_computations_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  return *this;
}

double PartialMatrix::value(std::size_t r, std::size_t c) const {
  DRCELL_CHECK_MSG(observed(r, c), "reading unobserved PartialMatrix entry");
  return values_(r, c);
}

void PartialMatrix::set(std::size_t r, std::size_t c, double v) {
  const std::size_t i = index(r, c);
  if (mask_[i] == 0) {
    mask_[i] = 1;
    ++observed_count_;
    sorted_insert(row_obs_[r], c);
    sorted_insert(col_obs_[c], r);
  } else if (std::bit_cast<std::uint64_t>(values_(r, c)) ==
             std::bit_cast<std::uint64_t>(v)) {
    // Re-observing an entry with the identical value (LOO restore) leaves
    // the content — and therefore the fingerprint — unchanged.
    return;
  }
  values_(r, c) = v;
  invalidate_fingerprint();
}

void PartialMatrix::clear(std::size_t r, std::size_t c) {
  const std::size_t i = index(r, c);
  if (mask_[i] != 0) {
    mask_[i] = 0;
    --observed_count_;
    sorted_erase(row_obs_[r], c);
    sorted_erase(col_obs_[c], r);
    invalidate_fingerprint();
  }
  values_(r, c) = 0.0;
}

std::size_t PartialMatrix::observed_count_in_col(std::size_t c) const {
  DRCELL_CHECK_MSG(c < cols(), "PartialMatrix column out of range");
  return col_obs_[c].size();
}

std::size_t PartialMatrix::observed_count_in_row(std::size_t r) const {
  DRCELL_CHECK_MSG(r < rows(), "PartialMatrix row out of range");
  return row_obs_[r].size();
}

const std::vector<std::size_t>& PartialMatrix::observed_rows_in_col(
    std::size_t c) const {
  DRCELL_CHECK_MSG(c < cols(), "PartialMatrix column out of range");
  return col_obs_[c];
}

const std::vector<std::size_t>& PartialMatrix::observed_cols_in_row(
    std::size_t r) const {
  DRCELL_CHECK_MSG(r < rows(), "PartialMatrix row out of range");
  return row_obs_[r];
}

double PartialMatrix::observed_mean() const {
  if (observed_count_ == 0) return 0.0;
  double s = 0.0;
  for (std::size_t r = 0; r < row_obs_.size(); ++r)
    for (std::size_t c : row_obs_[r]) s += values_(r, c);
  return s / static_cast<double>(observed_count_);
}

std::uint64_t PartialMatrix::fingerprint() const {
  if (fp_valid_.load(std::memory_order_acquire))
    return fp_.load(std::memory_order_relaxed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  mix(rows());
  mix(cols());
  mix(observed_count_);
  const std::size_t n = cols();
  for (std::size_t r = 0; r < row_obs_.size(); ++r)
    for (std::size_t c : row_obs_[r]) {
      mix(r * n + c);
      mix(std::bit_cast<std::uint64_t>(values_(r, c)));
    }
  fp_computations_.fetch_add(1, std::memory_order_relaxed);
  fp_.store(h, std::memory_order_relaxed);
  fp_valid_.store(true, std::memory_order_release);
  return h;
}

}  // namespace drcell::cs
