// Multi-campaign serving engine: steps N independent sensing campaigns
// concurrently over the shared thread pool, one synchronised "wave" (one
// selection step per unfinished campaign) at a time.
//
// Wave anatomy (step_wave):
//
//   0. HEALTH/RECOVER — serial: consult every serving agent's numeric
//      sentinels (core/health_monitor.h; a parameter scan of every tensor
//      written since its last clean scan — each wave for an agent that
//      trains, once after a write for a frozen one — and loss/Q sentinels
//      tripped earlier stay sticky). An unhealthy
//      agent triggers rollback from the auto-checkpoint ring, else
//      quarantine of its campaigns (see "Fault tolerance" below). Then, on
//      the configured cadence, snapshot the whole fleet into the in-memory
//      checkpoint ring (CRC-protected DRCK v2 — core/checkpoint.h).
//   1. DECIDE — serial, ascending slot order. Campaigns whose selector is
//      a frozen DrCellPolicy (core/policy.h) are grouped by agent; each
//      group's one-index states are stacked into ONE sparse timestep-major
//      [B x m] minibatch and scored with a single sparse full-width
//      forward_batch of the agent's online network (no dense state is
//      built), then each row is argmaxed under that campaign's
//      action mask. By the batched determinism contract (rl/qnetwork.h)
//      every row's Q-values — and therefore the chosen action — are
//      bit-identical to the B = 1 forward the solo runner would do.
//      Every other selector calls select() serially in slot order, so a
//      selector's private draw stream advances exactly as its solo
//      campaign would.
//   2. STEP — parallel_for over the unfinished campaigns: each applies its
//      decided action to its own environment (where the real work lives —
//      matrix-completion inference, the LOO gate). Writes are
//      index-exclusive per slot, so the result is bit-identical for any
//      worker count (util/thread_pool.h determinism contract).
//   3. OBSERVE — serial, ascending: selector on_step hooks (online
//      training). Serial because campaigns may share a trainable agent.
//
// Fault tolerance (FaultToleranceOptions). Every phase runs
// each campaign inside its own fault domain: a throw out of DECIDE, STEP or
// OBSERVE (an injected fault, an engine CheckError, anything) is caught,
// attributed to that campaign and never unwinds the wave. A failed STEP is
// retried once in-wave — the `env.step` fault site precedes any mutation,
// so a transient fault retried with the same action continues the
// trajectory BIT-IDENTICALLY. A campaign that faults two consecutive waves
// is quarantined: it stops stepping,
// its result is flagged, and the rest of the fleet continues — healthy
// campaigns' trajectories stay bit-identical to a no-fault run because
// campaigns never couple (own env/engine, private selector streams, and
// batched rows are row-wise bit-identical for any batch size). That
// isolation guarantee is hard-gated by bench_multi_campaign --fault-drill
// and tests/failure_injection_test.cpp.
//
// Graceful degradation of a shared agent: when a sentinel trips (NaN loss
// within one train step, non-finite Q row, poisoned parameters), the
// scheduler rolls the WHOLE fleet back to the newest auto-checkpoint ring
// entry (load_checkpoint onto itself — weights, counters, selector streams
// and replayed envs all return to the last-good wave bit-identically).
// Ring snapshots are taken only while every agent is healthy, so the ring
// never holds poisoned weights. After two rollbacks (a persistent
// poisoner), or with an empty ring, the agent's campaigns are
// quarantined; the rest of the fleet keeps serving. Every fault, retry,
// quarantine and rollback is appended to the human-readable incident log
// (`incidents()`).
//
// Per-campaign equivalence: a campaign stepped here produces the exact
// action log, environment trace and CampaignResult (seconds excluded —
// wall-clock is not part of any bit-compare) that run_campaign would
// produce with the same task/engine/selector/seeds, PROVIDED nothing
// couples the campaigns (engines and environments are per-campaign by
// construction; selectors must be per-campaign unless frozen;
// cross-campaign training through a shared online agent changes the
// training-data order by design). bench_multi_campaign hard-gates this
// equivalence.
//
// Checkpoint/resume (core/checkpoint.h): the scheduler records every
// campaign's ordered action log; resume rebuilds each environment with a
// fresh engine from the registered factory and replays the log — the
// environment is deterministic given the action sequence, and the replayed
// engine sees the identical inference-call sequence (including the
// order-sensitive ALS warm-start fingerprints), so a resumed scheduler
// continues bit-identically to one that never stopped. Quarantine state
// travels in the checkpoint (v2); a quarantined campaign's log holds only
// its SUCCESSFUL steps, so replay lands on its last consistent state.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "baselines/selector.h"
#include "core/campaign.h"
#include "linalg/sparse_matrix.h"
#include "util/thread_pool.h"

namespace drcell::core {

class DrCellAgent;
class DrCellPolicy;

enum class CampaignState { kActive, kQuarantined };

/// One entry of the scheduler's incident log — the operator-facing record
/// of what the fault-tolerance layer did and why.
struct Incident {
  std::size_t wave = 0;  ///< waves_completed when the incident was recorded
  std::string campaign;  ///< campaign id; empty = fleet-level incident
  std::string kind;      ///< "decide-fault", "step-fault", "observe-fault",
                         ///< "retry-recovered", "quarantine", "agent-unhealthy",
                         ///< "rollback"
  std::string detail;
};

class CampaignScheduler {
 public:
  /// Builds the campaign's inference engine. Must be deterministic — resume
  /// calls it again to rebuild the engine a replayed environment drives —
  /// which every stateless construction (make_als_engine(params), ...) is.
  using EngineFactory = std::function<cs::InferenceEnginePtr()>;

  /// Tuning of the per-campaign fault domains (see the file comment): the
  /// rollback ring. The step retry count, quarantine threshold and rollback
  /// budget are fixed (campaign_scheduler.cpp), and every wave's HEALTH
  /// phase scans each serving agent's parameters.
  struct FaultToleranceOptions {
    /// Snapshot the fleet into the checkpoint ring every N waves (0 = no
    /// auto-checkpointing; an unhealthy agent's campaigns are then
    /// quarantined at once).
    std::size_t checkpoint_every_waves = 0;
    /// Ring capacity (last K snapshots are kept).
    std::size_t checkpoint_ring = 3;
  };

  struct Options {
    util::ThreadPool* pool = nullptr;  ///< nullptr -> ThreadPool::global()
    FaultToleranceOptions fault;
  };

  CampaignScheduler();  // default Options: global pool
  explicit CampaignScheduler(Options options);

  /// Registers a campaign and builds its environment; returns the slot
  /// index. `selector` must stay exclusive to this campaign unless it is a
  /// frozen DrCellPolicy (stateless select), and ids must be
  /// unique — they key the checkpoint's identity check. The campaign's
  /// `env.step` fault-injection site is scoped by the id (unless the config
  /// already set a scope), so drills can target exactly one campaign.
  std::size_t add_campaign(std::string id, CampaignConfig config,
                           std::shared_ptr<const mcs::SensingTask> task,
                           EngineFactory engine_factory,
                           std::shared_ptr<baselines::CellSelector> selector);

  std::size_t num_campaigns() const { return slots_.size(); }
  /// True when every campaign is finished OR quarantined.
  bool all_done() const;
  std::size_t waves_completed() const { return waves_; }

  /// One wave: every unfinished, non-quarantined campaign decides and
  /// applies one action. Returns how many campaigns were stepped (0 = all
  /// done or quarantined).
  std::size_t step_wave();

  /// Waves until every campaign's episode is done (or quarantined);
  /// returns the number of waves run. `max_waves` > 0 caps the burst
  /// (checkpoint drills).
  std::size_t run(std::size_t max_waves = 0);

  const mcs::SparseMcsEnvironment& environment(std::size_t slot) const;
  const std::vector<std::uint32_t>& action_log(std::size_t slot) const;

  /// Slot indices currently quarantined, ascending. results() carries each
  /// campaign's quarantine flag and reason.
  std::vector<std::size_t> quarantined_slots() const;

  /// The fault-tolerance layer's ordered event record (see Incident).
  const std::vector<Incident>& incidents() const { return incidents_; }
  /// Rollbacks performed so far (at most two).
  std::size_t rollbacks() const { return rollbacks_; }

  /// Results in slot order, each carrying its campaign id. seconds is 0 —
  /// wall-clock is owned by the caller and excluded from bit-compares.
  /// Quarantined campaigns are flagged (CampaignResult::quarantined) and
  /// summarise their trajectory up to the quarantine point.
  std::vector<CampaignResult> results() const;

 private:
  struct Slot {
    std::string id;
    CampaignConfig config;
    std::shared_ptr<const mcs::SensingTask> task;
    EngineFactory engine_factory;
    std::shared_ptr<baselines::CellSelector> selector;
    DrCellPolicy* batched = nullptr;  ///< non-null: batchable decision
    std::unique_ptr<mcs::SparseMcsEnvironment> env;
    std::vector<std::uint32_t> action_log;
    /// Wave workspace (DECIDE writes, STEP reads; index-exclusive).
    std::size_t pending_action = 0;
    // Fault-domain state.
    CampaignState state = CampaignState::kActive;
    std::string quarantine_reason;
    std::size_t consecutive_faults = 0;
  };

  /// Returns false when a batched forward threw; the caller then
  /// re-decides those campaigns serially per-campaign.
  bool decide_batched(const std::vector<std::size_t>& active);
  void note_incident(std::string campaign, std::string kind,
                     std::string detail);
  void quarantine(std::size_t slot, std::string reason);
  /// HEALTH/RECOVER phase: sentinel checks, rollback/quarantine.
  void health_phase();
  /// `reason` is taken by value: the caller passes the agent's sticky
  /// health reason, which a successful rollback resets mid-call.
  void handle_unhealthy_agent(DrCellAgent* agent, std::string reason);
  bool rollback_from_ring();
  void maybe_ring_save();

  // The checkpoint layer's private-state accessor (core/checkpoint.cpp).
  friend struct CheckpointAccess;

  Options options_;
  std::vector<Slot> slots_;
  std::size_t waves_ = 0;
  std::vector<Incident> incidents_;
  std::vector<std::string> ring_;  // oldest first, <= checkpoint_ring
  std::size_t last_ring_wave_ = static_cast<std::size_t>(-1);
  std::size_t rollbacks_ = 0;
  // DECIDE's sparse timestep-major group states, reused across waves.
  std::vector<SparseRowMatrix> decide_steps_ws_;
};

}  // namespace drcell::core
