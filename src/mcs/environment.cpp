#include "mcs/environment.h"

#include <algorithm>

#include "util/fault_injection.h"

namespace drcell::mcs {

double EpisodeStats::quality_satisfaction_ratio(double epsilon) const {
  if (cycle_errors.empty()) return 0.0;
  std::size_t ok = 0;
  for (double e : cycle_errors)
    if (e <= epsilon) ++ok;
  return static_cast<double>(ok) / static_cast<double>(cycle_errors.size());
}

SparseMcsEnvironment::SparseMcsEnvironment(
    std::shared_ptr<const SensingTask> task, cs::InferenceEnginePtr engine,
    std::shared_ptr<const QualityGate> gate, EnvOptions options)
    : task_(std::move(task)),
      engine_(std::move(engine)),
      gate_(std::move(gate)),
      options_(options),
      encoder_(task_ ? task_->num_cells() : 1, options.history_cycles),
      selection_(task_ ? task_->num_cells() : 1,
                 task_ ? task_->num_cycles() : 1),
      window_(task_ ? task_->num_cells() : 1, 1) {
  DRCELL_CHECK(task_ != nullptr);
  DRCELL_CHECK(engine_ != nullptr);
  DRCELL_CHECK(gate_ != nullptr);
  DRCELL_CHECK(options_.inference_window > 0);
  DRCELL_CHECK(options_.cost >= 0.0);
  DRCELL_CHECK(options_.error_shaping >= 0.0);
  DRCELL_CHECK_MSG(options_.min_observations >= 1,
                   "at least one observation per cycle is required");
  if (!options_.cell_costs.empty()) {
    DRCELL_CHECK_MSG(options_.cell_costs.size() == task_->num_cells(),
                     "cell_costs must have one entry per cell");
    for (double c : options_.cell_costs) DRCELL_CHECK(c >= 0.0);
  }
  if (!options_.warm_start.empty()) {
    DRCELL_CHECK_MSG(options_.warm_start.rows() == task_->num_cells(),
                     "warm_start must have one row per cell");
    DRCELL_CHECK_MSG(!options_.warm_start.has_non_finite(),
                     "warm_start contains non-finite values");
  }
  reset();
}

void SparseMcsEnvironment::reset() {
  selection_.reset();
  cycle_ = 0;
  shaping_have_prev_ = false;
  done_ = false;
  stats_ = EpisodeStats{};
  rebuild_unsensed();
  advance_window_to(0);
}

void SparseMcsEnvironment::rebuild_unsensed() {
  const std::size_t cells = task_->num_cells();
  unsensed_.resize(cells);
  unsensed_pos_.resize(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    unsensed_[cell] = cell;
    unsensed_pos_[cell] = cell;
  }
  mask_.assign(cells, 1);
}

void SparseMcsEnvironment::remove_unsensed(std::size_t cell) {
  const std::size_t pos = unsensed_pos_[cell];
  DRCELL_CHECK_MSG(pos != kSensed, "cell already removed from unsensed set");
  const std::size_t last = unsensed_.back();
  unsensed_[pos] = last;
  unsensed_pos_[last] = pos;
  unsensed_.pop_back();
  unsensed_pos_[cell] = kSensed;
  mask_[cell] = 0;
}

void SparseMcsEnvironment::advance_window_to(std::size_t cycle) {
  const long w = static_cast<long>(options_.inference_window);
  const long warm = static_cast<long>(options_.warm_start.cols());
  // The window may reach back into the warm-start block (virtual cycles
  // -warm .. -1, fully observed preliminary-study data).
  window_anchor_ = std::max(static_cast<long>(cycle) + 1 - w, -warm);
  const std::size_t width =
      static_cast<std::size_t>(static_cast<long>(cycle) - window_anchor_ + 1);
  window_ = cs::PartialMatrix(task_->num_cells(), width);
  for (long v = window_anchor_; v <= static_cast<long>(cycle); ++v) {
    const std::size_t col = static_cast<std::size_t>(v - window_anchor_);
    if (v < 0) {
      const std::size_t warm_col = static_cast<std::size_t>(warm + v);
      for (std::size_t cell = 0; cell < task_->num_cells(); ++cell)
        window_.set(cell, col, options_.warm_start(cell, warm_col));
    } else {
      // Sensed entries of past campaign cycles stay available.
      const std::size_t c = static_cast<std::size_t>(v);
      for (std::size_t cell = 0; cell < task_->num_cells(); ++cell)
        if (selection_.selected(cell, c))
          window_.set(cell, col, task_->truth(cell, c));
    }
  }
}

double SparseMcsEnvironment::cost_of(std::size_t cell) const {
  return options_.cell_costs.empty() ? options_.cost
                                     : options_.cell_costs[cell];
}

std::size_t SparseMcsEnvironment::max_selections() const {
  return options_.max_selections_per_cycle == 0
             ? task_->num_cells()
             : std::min(options_.max_selections_per_cycle,
                        task_->num_cells());
}

std::vector<double> SparseMcsEnvironment::state() const {
  // After the final cycle completes the state of the would-be next cycle is
  // still well defined (all-empty current column) — trainers use it as the
  // terminal next-state.
  const std::size_t c = std::min(cycle_, task_->num_cycles() - 1);
  return encoder_.encode(selection_, c);
}

std::vector<std::uint32_t> SparseMcsEnvironment::state_ones() const {
  const std::size_t c = std::min(cycle_, task_->num_cycles() - 1);
  return encoder_.encode_ones(selection_, c);
}

StepResult SparseMcsEnvironment::step(std::size_t cell) {
  // Planted BEFORE any mutation: a transient injected fault leaves the
  // environment untouched, so the scheduler's in-wave retry of the same
  // action continues the trajectory bit-identically.
  DRCELL_FAULT_SITE("env.step", options_.fault_scope);
  DRCELL_CHECK_MSG(!done_, "step() after episode end");
  DRCELL_CHECK_MSG(cell < task_->num_cells(), "action out of range");
  DRCELL_CHECK_MSG(!selection_.selected(cell, cycle_),
                   "cell already sensed this cycle (mask violation)");

  selection_.mark(cell, cycle_);
  remove_unsensed(cell);
  window_.set(cell, current_window_col(), task_->truth(cell, cycle_));
  const std::size_t obs_this_cycle =
      selection_.selected_cells_in_cycle(cycle_).size();
  stats_.total_selections += 1;
  const double cost = cost_of(cell);
  stats_.total_cost += cost;

  StepResult result;
  result.reward = -cost;

  const bool everything_sensed = obs_this_cycle == task_->num_cells();
  const bool cap_reached = obs_this_cycle >= max_selections();
  bool satisfied = false;
  double cycle_error = 0.0;
  if (obs_this_cycle >= options_.min_observations || everything_sensed) {
    const std::size_t col = current_window_col();
    // Inference is the expensive part of a step; run it only when the gate
    // actually consumes it (the LOO gate does its own) or when the cycle is
    // about to close and the true error must be recorded.
    Matrix inferred;
    bool have_inferred = false;
    auto ensure_inferred = [&] {
      if (!have_inferred) {
        inferred = engine_->infer(window_);
        have_inferred = true;
      }
    };
    if (everything_sensed) {
      satisfied = true;
    } else {
      if (gate_->needs_inference()) ensure_inferred();
      const QualityContext ctx{*task_, window_,
                               col,    cycle_,
                               have_inferred ? &inferred : nullptr,
                               *engine_};
      satisfied = gate_->satisfied(ctx);
    }
    if (satisfied || cap_reached || options_.error_shaping > 0.0) {
      ensure_inferred();
      cycle_error =
          true_cycle_error(*task_, window_, col, inferred, cycle_);
    }
    if (options_.error_shaping > 0.0) {
      // Dense training-stage shaping (see EnvOptions::error_shaping): the
      // step earns its own marginal reduction of the true cycle error. The
      // shaped rewards of a cycle telescope to
      // error_shaping * (first measured error - final error), so the return
      // a policy maximises is exactly the total error reduction its
      // placements achieve.
      if (shaping_have_prev_)
        result.reward +=
            options_.error_shaping * (shaping_prev_error_ - cycle_error);
      shaping_prev_error_ = cycle_error;
      shaping_have_prev_ = true;
    }
  }

  if (satisfied || cap_reached) {
    // Cycle ends. q = 1 only if the quality requirement was actually met.
    const double bonus = options_.reward_bonus > 0.0
                             ? options_.reward_bonus
                             : static_cast<double>(task_->num_cells());
    if (satisfied) result.reward += bonus;
    result.cycle_complete = true;
    result.quality_satisfied = satisfied;
    result.true_cycle_error = cycle_error;

    stats_.cycles += 1;
    stats_.cycle_errors.push_back(cycle_error);
    stats_.cycle_selected.push_back(obs_this_cycle);

    shaping_have_prev_ = false;  // the next cycle differences from scratch
    if (cycle_ + 1 >= task_->num_cycles()) {
      done_ = true;
      result.episode_done = true;
      // Nothing is selectable after the episode: empty the unsensed set and
      // zero the mask for the cells still in it (O(remaining)).
      for (std::size_t c : unsensed_) {
        unsensed_pos_[c] = kSensed;
        mask_[c] = 0;
      }
      unsensed_.clear();
    } else {
      ++cycle_;
      // The new cycle starts with no selections: restore exactly the cells
      // the finished cycle consumed (O(changed), not O(cells)).
      for (std::size_t c : selection_.selected_cells_in_cycle(cycle_ - 1)) {
        unsensed_pos_[c] = unsensed_.size();
        unsensed_.push_back(c);
        mask_[c] = 1;
      }
      advance_window_to(cycle_);
    }
  }

  stats_.total_reward += result.reward;
  return result;
}

}  // namespace drcell::mcs
