#include "rl/replay_buffer.h"

namespace drcell::rl {

namespace {

void append_row(const SparseRowMatrix& enc, std::size_t src_row,
                SparseRowMatrix& dst, std::size_t dst_row) {
  const auto cols = enc.row_indices(src_row);
  const auto vals = enc.row_values(src_row);
  for (std::size_t e = 0; e < cols.size(); ++e)
    dst.append(dst_row, cols[e], vals[e]);
}

}  // namespace

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  DRCELL_CHECK_MSG(capacity_ > 0, "replay buffer needs positive capacity");
  items_.reserve(capacity_);
}

void ReplayBuffer::add(EncodedExperience e) {
  if (items_.size() < capacity_) {
    items_.push_back(std::move(e));
  } else {
    items_[next_] = std::move(e);
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<std::size_t> ReplayBuffer::sample_indices(std::size_t count,
                                                      Rng& rng) const {
  DRCELL_CHECK_MSG(!items_.empty(), "sampling from an empty replay buffer");
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(rng.uniform_index(items_.size()));
  return out;
}

void ReplayBuffer::fill_timestep_major_sparse(
    std::span<const std::size_t> indices,
    std::vector<SparseRowMatrix>& state_seq,
    std::vector<SparseRowMatrix>& next_seq) const {
  DRCELL_CHECK_MSG(!indices.empty(), "empty minibatch");
  const std::size_t b = indices.size();
  for (std::size_t i = 0; i < b; ++i) {
    const EncodedExperience& enc = items_.at(indices[i]);
    if (i == 0) {
      const std::size_t k = enc.state.rows();
      DRCELL_CHECK_MSG(k > 0 && enc.next_state.rows() == k,
                       "malformed encoded experience");
      const std::size_t cells = enc.state.cols();
      state_seq.resize(k);
      next_seq.resize(k);
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

}  // namespace drcell::rl
