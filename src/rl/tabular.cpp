#include "rl/tabular.h"

#include <algorithm>

namespace drcell::rl {

TabularQLearning::TabularQLearning(std::size_t num_actions, Options options)
    : num_actions_(num_actions), options_(options) {
  DRCELL_CHECK(num_actions_ > 0);
  DRCELL_CHECK(options_.alpha > 0.0 && options_.alpha <= 1.0);
  DRCELL_CHECK(options_.gamma >= 0.0 && options_.gamma <= 1.0);
}

TabularQLearning::StateKey TabularQLearning::make_key(
    const std::vector<double>& state) {
  StateKey key((state.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < state.size(); ++i)
    if (state[i] > 0.5) key[i / 64] |= (std::uint64_t{1} << (i % 64));
  return key;
}

std::size_t TabularQLearning::KeyHash::operator()(const StateKey& k) const {
  // FNV-1a over the packed words.
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t w : k) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return static_cast<std::size_t>(h);
}

const std::vector<double>* TabularQLearning::find_row(
    const StateKey& key) const {
  const auto it = table_.find(key);
  return it == table_.end() ? nullptr : &it->second;
}

std::size_t TabularQLearning::select_action(
    const std::vector<double>& state, const std::vector<std::uint8_t>& mask,
    double epsilon, Rng& rng) const {
  DRCELL_CHECK(mask.size() == num_actions_);
  std::vector<std::size_t> allowed;
  for (std::size_t a = 0; a < num_actions_; ++a)
    if (mask[a]) allowed.push_back(a);
  DRCELL_CHECK_MSG(!allowed.empty(), "no selectable action");

  const auto* row = find_row(make_key(state));
  std::size_t best = allowed.front();
  if (row != nullptr) {
    for (std::size_t a : allowed)
      if ((*row)[a] > (*row)[best]) best = a;
  } else if (allowed.size() > 1) {
    // Unseen state: all Q-values tie at zero — pick uniformly.
    best = allowed[rng.uniform_index(allowed.size())];
  }

  if (allowed.size() > 1 && rng.bernoulli(epsilon)) {
    // Explore: a uniformly random allowed action other than the best.
    std::vector<std::size_t> others;
    others.reserve(allowed.size() - 1);
    for (std::size_t a : allowed)
      if (a != best) others.push_back(a);
    return others[rng.uniform_index(others.size())];
  }
  return best;
}

void TabularQLearning::update(const std::vector<double>& state,
                              std::size_t action, double reward,
                              const std::vector<double>& next_state,
                              const std::vector<std::uint8_t>& next_mask,
                              bool terminal) {
  DRCELL_CHECK(action < num_actions_);
  const double v_next =
      terminal ? 0.0 : state_value(next_state, next_mask);
  auto& row = table_[make_key(state)];
  if (row.empty()) row.assign(num_actions_, 0.0);
  // Q[S,A] = (1−α) Q[S,A] + α (R + γ V(S'))   (Eq. 2)
  row[action] = (1.0 - options_.alpha) * row[action] +
                options_.alpha * (reward + options_.gamma * v_next);
}

double TabularQLearning::state_value(
    const std::vector<double>& state,
    const std::vector<std::uint8_t>& mask) const {
  DRCELL_CHECK(mask.size() == num_actions_);
  const auto* row = find_row(make_key(state));
  double best = 0.0;
  bool any = false;
  for (std::size_t a = 0; a < num_actions_; ++a) {
    if (!mask[a]) continue;
    const double q = row == nullptr ? 0.0 : (*row)[a];
    if (!any || q > best) {
      best = q;
      any = true;
    }
  }
  return any ? best : 0.0;
}

}  // namespace drcell::rl
