#include "rl/replay_buffer.h"

namespace drcell::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity, std::size_t max_cache_bytes)
    : capacity_(capacity), max_cache_bytes_(max_cache_bytes) {
  DRCELL_CHECK_MSG(capacity_ > 0, "replay buffer needs positive capacity");
  items_.reserve(capacity_);
  cache_.reserve(capacity_);
}

void ReplayBuffer::add(Experience e) {
  if (items_.size() < capacity_) {
    items_.push_back(std::move(e));
    cache_.emplace_back();
  } else {
    items_[next_] = std::move(e);
    if (cache_[next_].has_value()) {
      // The slot now holds a different transition; release its encoding
      // back to the byte budget.
      cache_bytes_ -= encoded_bytes(*cache_[next_]);
      cache_[next_].reset();
    }
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

void ReplayBuffer::clear() {
  items_.clear();
  cache_.clear();
  cache_bytes_ = 0;
  next_ = 0;
}

}  // namespace drcell::rl
