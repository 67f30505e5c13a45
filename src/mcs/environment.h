// SparseMcsEnvironment — the sequential decision process of Sec. 3/4.
//
// One episode walks the task's cycles in order. Within a cycle the agent
// repeatedly picks an unsensed cell (the RL action); the environment
// records the observation, re-runs data inference and consults the quality
// gate. When the gate is satisfied the cycle completes: the action that
// closed it earns R·q − c (q = 1), every other action earns −c, exactly as
// in Algorithms 1 and 2. The environment also keeps the bookkeeping the
// evaluation needs: the full selection matrix, per-cycle true inference
// errors and the (epsilon, p) satisfaction ratio.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cs/inference_engine.h"
#include "mcs/quality.h"
#include "mcs/selection_matrix.h"
#include "mcs/sensing_task.h"
#include "mcs/state_encoder.h"

namespace drcell::mcs {

struct EnvOptions {
  /// k — how many recent cycles form the RL state (Sec. 4.1).
  std::size_t history_cycles = 2;
  /// w — how many recent cycles feed the inference engine.
  std::size_t inference_window = 12;
  /// R — bonus when the action satisfies the quality requirement.
  /// 0 means "use the number of cells" (the paper's worked example).
  double reward_bonus = 0.0;
  /// c — cost of one sensing action (uniform case).
  double cost = 1.0;
  /// Fewest observations in a cycle before the gate is consulted.
  std::size_t min_observations = 3;
  /// Hard per-cycle selection cap; 0 means "all cells".
  std::size_t max_selections_per_cycle = 0;
  /// Future-work extension (Sec. 6): heterogeneous per-cell sensing costs.
  /// Empty means every cell costs `cost`.
  std::vector<double> cell_costs;
  /// Fully-observed history prepended before cycle 0 — the preliminary
  /// study data the organiser already holds when deployment starts
  /// (Sec. 5.3: "a 2-day preliminary study to collect data from all the
  /// cells"). cells x h; the inference window reaches back into it.
  /// Empty disables warm starting.
  Matrix warm_start;
  /// Scope label of this environment's `env.step` fault-injection site
  /// (util/fault_injection.h) — the campaign scheduler sets it to the
  /// campaign id so drills can target one campaign. Empty (the default)
  /// leaves the site matchable only by unscoped specs. Never affects the
  /// trajectory when no matching fault is armed.
  std::string fault_scope;
  /// Training-stage dense reward shaping: when > 0, every step whose
  /// observation count has reached `min_observations` additionally earns
  /// `error_shaping * (previous true cycle error - current true cycle
  /// error)` — the step's own marginal reduction of the true inference
  /// error. Like GroundTruthGate this consults the ground truth, which the
  /// organiser only has for the fully-observed historical data the DRQN is
  /// trained on offline (Sec. 5.3) — never enable it in a deployment
  /// environment. Forces a full inference per step (warm-started ALS, so
  /// typically one or two polish sweeps). 0 (the default) disables shaping
  /// and skips the per-step inference entirely.
  double error_shaping = 0.0;
};

struct StepResult {
  double reward = 0.0;
  bool cycle_complete = false;     ///< the cycle's data collection ended
  bool quality_satisfied = false;  ///< gate fired (vs forced completion)
  bool episode_done = false;       ///< no more cycles in the horizon
  double true_cycle_error = 0.0;   ///< only valid when cycle_complete
};

/// Summary of one completed episode (used by trainers and the campaign
/// runner alike).
struct EpisodeStats {
  std::size_t cycles = 0;
  std::size_t total_selections = 0;
  double total_reward = 0.0;
  double total_cost = 0.0;
  std::vector<double> cycle_errors;        ///< true error per cycle
  std::vector<std::size_t> cycle_selected; ///< #selected per cycle

  double average_selections_per_cycle() const {
    return cycles ? static_cast<double>(total_selections) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
  /// Fraction of cycles whose true error was <= epsilon — the post-hoc
  /// verification of (epsilon, p)-quality (Eq. 1).
  double quality_satisfaction_ratio(double epsilon) const;
};

class SparseMcsEnvironment {
 public:
  SparseMcsEnvironment(std::shared_ptr<const SensingTask> task,
                       cs::InferenceEnginePtr engine,
                       std::shared_ptr<const QualityGate> gate,
                       EnvOptions options = {});

  const SensingTask& task() const { return *task_; }
  const EnvOptions& options() const { return options_; }
  const StateEncoder& encoder() const { return encoder_; }
  std::size_t num_cells() const { return task_->num_cells(); }

  /// Starts a fresh episode at cycle 0.
  void reset();

  std::size_t current_cycle() const { return cycle_; }
  bool episode_done() const { return done_; }

  /// Flat RL state (k*m, oldest cycle first) at the current position.
  std::vector<double> state() const;
  /// Sparse state: the ascending flat indices of the 1.0 entries of
  /// state() (see StateEncoder::encode_ones) — O(k·selected) instead of
  /// O(k·cells), the metro-tier representation.
  std::vector<std::uint32_t> state_ones() const;
  /// mask[i] == 1 iff cell i may be selected now. The mask is maintained
  /// incrementally (O(1) per step, O(changed) per cycle turnover) and
  /// returned by const reference — no O(cells) copy per call. The
  /// reference is invalidated by the next step()/reset(); copy it to keep
  /// it across steps (e.g. a transition's next_mask).
  const std::vector<std::uint8_t>& action_mask() const { return mask_; }
  /// The cells selectable right now — the complement of the current cycle's
  /// selections; empty once the episode is done. O(1): returns a const
  /// reference to the incrementally maintained set (swap-removal order, not
  /// ascending — deterministic for a given action sequence). Invalidated by
  /// the next step()/reset().
  const std::vector<std::size_t>& unsensed_cells() const { return unsensed_; }
  /// O(1) membership test: may `cell` be selected now?
  bool can_select(std::size_t cell) const {
    return cell < unsensed_pos_.size() && unsensed_pos_[cell] != kSensed;
  }

  /// Senses `cell` in the current cycle. Requires an unsensed cell and an
  /// unfinished episode.
  StepResult step(std::size_t cell);

  /// Runs the rest of the current cycle with an arbitrary selection policy
  /// (used by baselines). Returns the step result that completed the cycle.
  template <typename PickCell>
  StepResult run_cycle(PickCell&& pick) {
    StepResult last;
    do {
      last = step(pick(*this));
    } while (!last.cycle_complete);
    return last;
  }

  /// The observation window the inference engine currently sees.
  const cs::PartialMatrix& observation_window() const { return window_; }
  /// Column of the window holding the current cycle.
  std::size_t current_window_col() const {
    return static_cast<std::size_t>(static_cast<long>(cycle_) -
                                    window_anchor_);
  }

  const SelectionMatrix& selections() const { return selection_; }
  const EpisodeStats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kSensed = static_cast<std::size_t>(-1);

  void advance_window_to(std::size_t cycle);
  double cost_of(std::size_t cell) const;
  std::size_t max_selections() const;
  /// O(cells): every cell becomes selectable (episode start).
  void rebuild_unsensed();
  /// O(1) swap-removal of a just-sensed cell from the unsensed set.
  void remove_unsensed(std::size_t cell);

  std::shared_ptr<const SensingTask> task_;
  cs::InferenceEnginePtr engine_;
  std::shared_ptr<const QualityGate> gate_;
  EnvOptions options_;
  StateEncoder encoder_;

  SelectionMatrix selection_;
  // Incrementally maintained complement of the current cycle's selections:
  // `unsensed_` is the dense list, `unsensed_pos_[cell]` its position in
  // that list (kSensed when selected), `mask_` the matching 0/1 action
  // mask. step() updates all three in O(1); a cycle turnover restores the
  // finished cycle's selections in O(changed).
  std::vector<std::size_t> unsensed_;
  std::vector<std::size_t> unsensed_pos_;
  std::vector<std::uint8_t> mask_;
  cs::PartialMatrix window_;  // cells x window-cycles observations
  long window_anchor_ = 0;    // campaign cycle of window col 0 (< 0 = warm)
  // Reward-shaping state: the true cycle error after the previous step of
  // the current cycle (invalid before the first measurable error of a cycle
  // — the first shaped step has no predecessor to difference against).
  double shaping_prev_error_ = 0.0;
  bool shaping_have_prev_ = false;
  std::size_t cycle_ = 0;
  bool done_ = false;
  EpisodeStats stats_;
};

}  // namespace drcell::mcs
