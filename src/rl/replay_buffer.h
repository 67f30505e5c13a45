// Uniform experience-replay memory (the pool D of Algorithm 2).
//
// Alongside each transition the buffer caches its encoded DRQN input
// sequences. The encodings are one-hot unions, so they are cached *sparse*
// (SparseRowMatrix, one [k x cells] per state): a dense encoded transition
// costs ~2·k·cells doubles — at the 10,000-cell metro tier the former
// 256 MiB dense budget would hold fewer than 800 transitions, while the
// sparse form costs ~12 bytes per selected cell. The cache is filled lazily
// on first access (the trainer supplies the encoding function), invalidated
// when the ring overwrites the slot, and bounded by a byte budget. Past the
// budget, encoded() computes into a scratch slot instead of caching.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "rl/experience.h"
#include "util/rng.h"

namespace drcell::rl {

/// Encoded DRQN inputs of one transition, stored sparse: row j of each
/// [k x cells] matrix is step j of S (resp. S') — see
/// mcs::StateEncoder::to_sparse_steps.
struct EncodedExperience {
  SparseRowMatrix state;
  SparseRowMatrix next_state;
};

class ReplayBuffer {
 public:
  /// Default byte budget of the encoded-sequence cache (256 MiB). With the
  /// sparse encoding an entry costs ~12 bytes per selected cell instead of
  /// 8·k·cells, so the budget now covers full pools even at the
  /// 10,000-cell metro tier (300 selections/cycle, k = 2: ≲15 KB each).
  static constexpr std::size_t kDefaultMaxCacheBytes =
      std::size_t{256} << 20;

  explicit ReplayBuffer(std::size_t capacity,
                        std::size_t max_cache_bytes = kDefaultMaxCacheBytes);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// Adds a transition, evicting the oldest once full (ring buffer). The
  /// overwritten slot's cached encoding is invalidated.
  void add(Experience e);

  /// Uniformly samples `count` slot indices with replacement (the key of
  /// the encoded-sequence cache).
  std::vector<std::size_t> sample_indices(std::size_t count, Rng& rng) const;

  /// Cached encoded sequences of transition i, computed via `encode` on the
  /// first access after the slot was (re)written. Once the byte budget is
  /// exhausted, further misses are served from a scratch slot — the
  /// returned reference is then only valid until the next encoded() call.
  /// Not thread-safe — call from the training thread only.
  template <typename EncodeFn>
  const EncodedExperience& encoded(std::size_t i, EncodeFn&& encode) const {
    auto& slot = cache_.at(i);
    if (slot.has_value()) return *slot;
    EncodedExperience enc = encode(items_[i]);
    ++encode_misses_;
    const std::size_t bytes = encoded_bytes(enc);
    if (cache_bytes_ + bytes <= max_cache_bytes_) {
      cache_bytes_ += bytes;
      slot = std::move(enc);
      return *slot;
    }
    scratch_ = std::move(enc);
    return scratch_;
  }
  /// Assembles the trainer's *dense* timestep-major minibatch straight from
  /// the (sparse) encoded-sequence cache: `state_seq`/`next_seq` are shaped
  /// to k matrices of [indices.size() x cells] (their storage is reused
  /// across calls) and row i of every step is zeroed then scattered from
  /// transition indices[i]'s cached encoding. Rows land in ascending i
  /// order, so the batch layout is deterministic. Cache semantics match
  /// encoded(): lazy fill on first access, invalidated when the ring
  /// overwrites a slot, scratch fallback past the byte budget.
  template <typename EncodeFn>
  void fill_timestep_major(std::span<const std::size_t> indices,
                           EncodeFn&& encode, std::vector<Matrix>& state_seq,
                           std::vector<Matrix>& next_seq) const {
    DRCELL_CHECK_MSG(!indices.empty(), "empty minibatch");
    const std::size_t b = indices.size();
    for (std::size_t i = 0; i < b; ++i) {
      // The reference is only guaranteed until the next encoded() call
      // (scratch fallback), so each transition's rows are copied out before
      // the next lookup.
      const EncodedExperience& enc = encoded(indices[i], encode);
      if (i == 0) {
        const std::size_t k = enc.state.rows();
        DRCELL_CHECK_MSG(k > 0 && enc.next_state.rows() == k,
                         "malformed encoded experience");
        const std::size_t cells = enc.state.cols();
        if (state_seq.size() != k) state_seq.resize(k);
        if (next_seq.size() != k) next_seq.resize(k);
        for (std::size_t j = 0; j < k; ++j) {
          state_seq[j].resize_overwrite(b, cells);
          next_seq[j].resize_overwrite(b, cells);
        }
      }
      DRCELL_CHECK_MSG(enc.state.rows() == state_seq.size(),
                       "inconsistent encoded sequence length");
      DRCELL_CHECK_MSG(enc.state.cols() == state_seq.front().cols(),
                       "inconsistent encoded step width");
      for (std::size_t j = 0; j < state_seq.size(); ++j) {
        scatter_row(enc.state, j, state_seq[j], i);
        scatter_row(enc.next_state, j, next_seq[j], i);
      }
    }
  }

  /// Sparse counterpart of fill_timestep_major: shapes `state_seq`/
  /// `next_seq` to k SparseRowMatrix of [indices.size() x cells] (entry
  /// storage reused across calls) and appends transition indices[i]'s
  /// cached rows as row i — no densification anywhere, so assembling a
  /// metro-tier minibatch costs O(nonzeros) instead of O(b·k·cells).
  template <typename EncodeFn>
  void fill_timestep_major_sparse(std::span<const std::size_t> indices,
                                  EncodeFn&& encode,
                                  std::vector<SparseRowMatrix>& state_seq,
                                  std::vector<SparseRowMatrix>& next_seq)
      const {
    DRCELL_CHECK_MSG(!indices.empty(), "empty minibatch");
    const std::size_t b = indices.size();
    for (std::size_t i = 0; i < b; ++i) {
      const EncodedExperience& enc = encoded(indices[i], encode);
      if (i == 0) {
        const std::size_t k = enc.state.rows();
        DRCELL_CHECK_MSG(k > 0 && enc.next_state.rows() == k,
                         "malformed encoded experience");
        const std::size_t cells = enc.state.cols();
        if (state_seq.size() != k) state_seq.resize(k);
        if (next_seq.size() != k) next_seq.resize(k);
        for (std::size_t j = 0; j < k; ++j) {
          state_seq[j].reset(b, cells);
          next_seq[j].reset(b, cells);
        }
      }
      DRCELL_CHECK_MSG(enc.state.rows() == state_seq.size(),
                       "inconsistent encoded sequence length");
      DRCELL_CHECK_MSG(enc.state.cols() == state_seq.front().cols(),
                       "inconsistent encoded step width");
      for (std::size_t j = 0; j < state_seq.size(); ++j) {
        append_row(enc.state, j, state_seq[j], i);
        append_row(enc.next_state, j, next_seq[j], i);
      }
    }
  }

  /// How many encoded() calls had to encode (cache misses) — instrumentation
  /// for the no-re-encoding regression tests.
  std::size_t encode_misses() const { return encode_misses_; }
  /// Bytes currently held by cached encodings (excludes the scratch slot).
  std::size_t cache_bytes() const { return cache_bytes_; }

  const Experience& at(std::size_t i) const { return items_.at(i); }
  void clear();

 private:
  static std::size_t encoded_bytes(const EncodedExperience& e) {
    return e.state.byte_size() + e.next_state.byte_size();
  }
  /// Row `src_row` of `enc` written dense into row `dst_row` of `dst`
  /// (zeroed first — resize_overwrite leaves stale contents).
  static void scatter_row(const SparseRowMatrix& enc, std::size_t src_row,
                          Matrix& dst, std::size_t dst_row) {
    auto drow = dst.row(dst_row);
    std::fill(drow.begin(), drow.end(), 0.0);
    const auto cols = enc.row_indices(src_row);
    const auto vals = enc.row_values(src_row);
    for (std::size_t e = 0; e < cols.size(); ++e) drow[cols[e]] = vals[e];
  }
  static void append_row(const SparseRowMatrix& enc, std::size_t src_row,
                         SparseRowMatrix& dst, std::size_t dst_row) {
    const auto cols = enc.row_indices(src_row);
    const auto vals = enc.row_values(src_row);
    for (std::size_t e = 0; e < cols.size(); ++e)
      dst.append(dst_row, cols[e], vals[e]);
  }

  std::size_t capacity_;
  std::size_t max_cache_bytes_;
  std::size_t next_ = 0;  // ring cursor once at capacity
  std::vector<Experience> items_;
  mutable std::vector<std::optional<EncodedExperience>> cache_;
  mutable std::size_t cache_bytes_ = 0;
  mutable std::size_t encode_misses_ = 0;
  mutable EncodedExperience scratch_;  // over-budget misses land here
};

}  // namespace drcell::rl
