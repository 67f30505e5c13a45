#include "core/campaign_scheduler.h"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "core/checkpoint.h"
#include "core/policy.h"
#include "mcs/state_encoder.h"

namespace drcell::core {

namespace {

// Consecutive faulted waves before a campaign is quarantined.
constexpr std::size_t kQuarantineAfter = 2;
// Rollbacks before an unhealthy agent is declared persistent and its
// campaigns degrade to the fallback selector (or quarantine).
constexpr std::size_t kMaxRollbacks = 2;

std::string what_of(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

CampaignScheduler::CampaignScheduler() : CampaignScheduler(Options()) {}

CampaignScheduler::CampaignScheduler(Options options)
    : options_(std::move(options)) {}

std::size_t CampaignScheduler::add_campaign(
    std::string id, CampaignConfig config,
    std::shared_ptr<const mcs::SensingTask> task, EngineFactory engine_factory,
    std::shared_ptr<baselines::CellSelector> selector) {
  DRCELL_CHECK_MSG(!id.empty(), "campaign id must be non-empty");
  DRCELL_CHECK(task != nullptr);
  DRCELL_CHECK(engine_factory != nullptr);
  DRCELL_CHECK(selector != nullptr);
  for (const Slot& s : slots_)
    DRCELL_CHECK_MSG(s.id != id, "duplicate campaign id: " + id);

  Slot slot;
  slot.id = std::move(id);
  slot.config = config;
  // Scope this campaign's env.step fault site by its id so a drill can
  // target exactly one campaign of the fleet.
  if (slot.config.env.fault_scope.empty())
    slot.config.env.fault_scope = slot.id;
  slot.task = std::move(task);
  slot.engine_factory = std::move(engine_factory);
  slot.selector = std::move(selector);
  slot.batched = dynamic_cast<BatchedQSelector*>(slot.selector.get());
  slot.env = make_campaign_environment(slot.task, slot.engine_factory(),
                                       slot.config);
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

bool CampaignScheduler::all_done() const {
  return std::all_of(slots_.begin(), slots_.end(), [](const Slot& s) {
    return s.env->episode_done() || s.state == CampaignState::kQuarantined;
  });
}

CampaignState CampaignScheduler::campaign_state(std::size_t slot) const {
  DRCELL_CHECK(slot < slots_.size());
  return slots_[slot].state;
}

const std::string& CampaignScheduler::quarantine_reason(
    std::size_t slot) const {
  DRCELL_CHECK(slot < slots_.size());
  return slots_[slot].quarantine_reason;
}

std::vector<std::size_t> CampaignScheduler::quarantined_slots() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].state == CampaignState::kQuarantined) out.push_back(i);
  return out;
}

const std::string& CampaignScheduler::checkpoint_ring_entry(
    std::size_t i) const {
  DRCELL_CHECK(i < ring_.size());
  return ring_[i];
}

void CampaignScheduler::note_incident(std::string campaign, std::string kind,
                                      std::string detail) {
  Incident inc;
  inc.wave = waves_;
  inc.campaign = std::move(campaign);
  inc.kind = std::move(kind);
  inc.detail = std::move(detail);
  incidents_.push_back(std::move(inc));
}

void CampaignScheduler::quarantine(std::size_t slot, std::string reason) {
  Slot& s = slots_[slot];
  if (s.state == CampaignState::kQuarantined) return;
  s.state = CampaignState::kQuarantined;
  s.quarantine_reason = reason;
  note_incident(s.id, "quarantine", std::move(reason));
}

bool CampaignScheduler::decide_batched(const std::vector<std::size_t>& active) {
  // Group batchable campaigns by shared network, preserving first-seen
  // order (and ascending slot order within a group) so the batch layout —
  // and with it any accumulation order downstream — is deterministic.
  std::vector<rl::QNetwork*> networks;
  std::vector<std::vector<std::size_t>> groups;
  for (const std::size_t i : active) {
    Slot& slot = slots_[i];
    if (slot.batched == nullptr) continue;
    rl::QNetwork* net = &slot.batched->shared_network();
    const auto it = std::find(networks.begin(), networks.end(), net);
    if (it == networks.end()) {
      networks.push_back(net);
      groups.emplace_back();
      groups.back().push_back(i);
    } else {
      groups[static_cast<std::size_t>(it - networks.begin())].push_back(i);
    }
  }

  bool all_ok = true;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    rl::QNetwork& net = *networks[g];
    const std::vector<std::size_t>& members = groups[g];
    try {
      std::vector<const std::vector<double>*> states;
      states.reserve(members.size());
      for (const std::size_t i : members) {
        slots_[i].state_buf = slots_[i].env->state();
        states.push_back(&slots_[i].state_buf);
      }
      const mcs::StateEncoder encoder(net.num_actions(), net.history_steps());
      // One forward for the whole group; row r is bit-identical to the B = 1
      // forward of member r's state (batched determinism contract), and
      // masked_argmax_row is the same argmax greedy_action applies — so each
      // campaign picks exactly its solo action.
      const Matrix& q = net.forward_batch(encoder.to_sequence_batch(states));
      // Q sentinel: a poisoned shared network shows up here first. check_q
      // trips the owning agent's sticky monitor; the HEALTH phase of the
      // next wave acts on it (rollback / fallback / quarantine).
      if (DrCellAgent* agent =
              trainable_agent_of(slots_[members[0]].selector.get()))
        agent->health().check_q(q);
      for (std::size_t r = 0; r < members.size(); ++r) {
        Slot& slot = slots_[members[r]];
        slot.pending_action =
            rl::masked_argmax_row(q, r, slot.env->action_mask());
      }
    } catch (const std::exception& e) {
      // The whole group's decision failed; the caller re-decides its
      // members serially, each in its own fault domain. Greedy selects are
      // draw-free, so the serial re-decide is bit-identical.
      note_incident("", "decide-fault",
                    "batched forward failed, falling back to serial selects: " +
                        std::string(e.what()));
      all_ok = false;
    }
  }
  return all_ok;
}

void CampaignScheduler::maybe_ring_save() {
  const FaultToleranceOptions& ft = options_.fault;
  if (ft.checkpoint_every_waves == 0 || ft.checkpoint_ring == 0) return;
  if (waves_ % ft.checkpoint_every_waves != 0) return;
  if (waves_ == last_ring_wave_) return;  // already snapshotted (rollback)
  std::ostringstream out(std::ios::binary);
  save_checkpoint(*this, out);
  ring_.push_back(std::move(out).str());
  if (ring_.size() > ft.checkpoint_ring)
    ring_.erase(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(
                                    ring_.size() - ft.checkpoint_ring));
  last_ring_wave_ = waves_;
}

bool CampaignScheduler::rollback_from_ring() {
  while (!ring_.empty()) {
    try {
      std::istringstream in(ring_.back(), std::ios::binary);
      load_checkpoint(*this, in);
      last_ring_wave_ = waves_;  // restored to the snapshot's wave
      for (Slot& slot : slots_) slot.consecutive_faults = 0;
      // The restored weights are the last-good ones; clear every restored
      // agent's sticky sentinel so monitoring starts fresh.
      for (Slot& slot : slots_)
        if (DrCellAgent* agent = trainable_agent_of(slot.selector.get()))
          agent->health().reset();
      return true;
    } catch (const std::exception& e) {
      // A ring entry can become unloadable if the fleet's shape changed
      // since the snapshot (e.g. a campaign fell back to a different
      // selector type). Drop it and try the next-older one.
      note_incident("", "rollback", "discarding unloadable ring entry: " +
                                        std::string(e.what()));
      ring_.pop_back();
    }
  }
  return false;
}

void CampaignScheduler::handle_unhealthy_agent(DrCellAgent* agent,
                                               std::string reason) {
  note_incident("", "agent-unhealthy", reason);
  const FaultToleranceOptions& ft = options_.fault;
  if (rollbacks_ < kMaxRollbacks) {
    ++rollbacks_;
    if (rollback_from_ring()) {
      std::ostringstream msg;
      msg << "restored fleet from checkpoint ring (wave " << waves_
          << ") after: " << reason;
      note_incident("", "rollback", msg.str());
      return;
    }
  }
  // Persistent poisoner or no usable snapshot: degrade the agent's
  // campaigns to the fallback selector, or quarantine them.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.state == CampaignState::kQuarantined) continue;
    if (trainable_agent_of(slot.selector.get()) != agent) continue;
    if (ft.fallback_factory) {
      slot.selector = ft.fallback_factory(slot.id, i);
      DRCELL_CHECK_MSG(slot.selector != nullptr,
                       "fallback_factory returned null");
      slot.batched = dynamic_cast<BatchedQSelector*>(slot.selector.get());
      note_incident(slot.id, "fallback", "degraded to " +
                                             slot.selector->name() +
                                             " after: " + reason);
    } else {
      quarantine(i, "agent unhealthy: " + reason);
    }
  }
}

void CampaignScheduler::health_phase() {
  // Distinct serving agents of the non-quarantined slots, first-seen order.
  std::vector<DrCellAgent*> agents;
  for (const Slot& slot : slots_) {
    if (slot.state == CampaignState::kQuarantined) continue;
    DrCellAgent* agent = trainable_agent_of(slot.selector.get());
    if (agent != nullptr &&
        std::find(agents.begin(), agents.end(), agent) == agents.end())
      agents.push_back(agent);
  }
  for (DrCellAgent* agent : agents) {
    // Sentinels tripped since the last wave (NaN loss out of a train step,
    // non-finite Q row) are sticky; the parameter scan adds direct weight
    // poisoning.
    if (agent->health().healthy()) agent->check_parameter_health();
    if (!agent->health().healthy())
      handle_unhealthy_agent(agent, agent->health().reason());
  }
}

std::size_t CampaignScheduler::step_wave() {
  // HEALTH/RECOVER precedes the snapshot: the ring only ever holds states
  // every agent was healthy in, so a rollback target is always clean.
  health_phase();
  maybe_ring_save();

  std::vector<std::size_t> active;
  active.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (!slots_[i].env->episode_done() &&
        slots_[i].state != CampaignState::kQuarantined)
      active.push_back(i);
  if (active.empty()) return 0;

  // Per-campaign wave bookkeeping: which phase each campaign reached, and
  // the first fault attributed to it.
  std::vector<std::uint8_t> decided(active.size(), 0);
  std::vector<std::uint8_t> stepped(active.size(), 0);
  std::vector<std::string> fault_kind(active.size());
  std::vector<std::string> fault_what(active.size());

  // DECIDE. Batched groups first (one forward per shared network), then the
  // serial selectors in ascending slot order — each owns its draw stream,
  // so its decisions replay its solo campaign's exactly.
  const bool batched_ok = decide_batched(active);
  for (std::size_t k = 0; k < active.size(); ++k) {
    Slot& slot = slots_[active[k]];
    if (slot.batched != nullptr && batched_ok) {
      decided[k] = 1;
      continue;
    }
    try {
      slot.pending_action = slot.selector->select(*slot.env);
      decided[k] = 1;
    } catch (const std::exception& e) {
      // No in-wave retry for DECIDE: a stateful selector's draw stream
      // already advanced, so re-selecting would fork the trajectory. The
      // next wave retries naturally.
      fault_kind[k] = "decide-fault";
      fault_what[k] = e.what();
    }
  }

  // STEP — the expensive phase (inference + gate) fans out over the pool.
  // Index-exclusive writes per slot keep it bit-identical for any worker
  // count. StepResults are recorded for the OBSERVE phase. A throwing step
  // is captured per-campaign instead of unwinding the wave through the
  // pool's aggregate-and-rethrow.
  util::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : util::ThreadPool::global();
  std::vector<mcs::StepResult> results(active.size());
  std::vector<std::exception_ptr> step_errors(active.size());
  pool.parallel_for(active.size(), [&](std::size_t k) {
    if (!decided[k]) return;
    Slot& slot = slots_[active[k]];
    try {
      results[k] = slot.env->step(slot.pending_action);
      slot.action_log.push_back(
          static_cast<std::uint32_t>(slot.pending_action));
      stepped[k] = 1;
    } catch (...) {
      step_errors[k] = std::current_exception();
    }
  });

  // RETRY — serial, ascending: a transient step fault is retried once with
  // the SAME action on the still-unmutated environment (the env.step fault
  // site precedes all mutation), so a recovered campaign's trajectory is
  // bit-identical to one that never faulted. DECIDE/OBSERVE faults retry on
  // the next wave instead — their selector streams must not be re-advanced.
  for (std::size_t k = 0; k < active.size(); ++k) {
    if (!decided[k] || stepped[k]) continue;
    Slot& slot = slots_[active[k]];
    try {
      results[k] = slot.env->step(slot.pending_action);
      slot.action_log.push_back(
          static_cast<std::uint32_t>(slot.pending_action));
      stepped[k] = 1;
      note_incident(slot.id, "retry-recovered",
                    "step retry succeeded after: " + what_of(step_errors[k]));
      step_errors[k] = nullptr;
    } catch (...) {
      step_errors[k] = std::current_exception();
    }
    if (!stepped[k]) {
      fault_kind[k] = "step-fault";
      fault_what[k] = what_of(step_errors[k]);
    }
  }

  // OBSERVE — serial, ascending: hooks may train a shared agent.
  for (std::size_t k = 0; k < active.size(); ++k) {
    if (!stepped[k]) continue;
    Slot& slot = slots_[active[k]];
    try {
      slot.selector->on_step(*slot.env, slot.pending_action, results[k]);
    } catch (const std::exception& e) {
      // The step itself committed (action applied and logged); only the
      // learning hook failed. The campaign keeps serving.
      fault_kind[k] = "observe-fault";
      fault_what[k] = e.what();
    }
  }

  // Fault accounting: a clean wave resets the streak; a faulted one
  // extends it and quarantines the campaign past the threshold.
  for (std::size_t k = 0; k < active.size(); ++k) {
    Slot& slot = slots_[active[k]];
    if (fault_kind[k].empty()) {
      slot.consecutive_faults = 0;
      continue;
    }
    ++slot.consecutive_faults;
    note_incident(slot.id, fault_kind[k], fault_what[k]);
    if (slot.consecutive_faults >= kQuarantineAfter)
      quarantine(active[k], fault_kind[k] + " x" +
                                std::to_string(slot.consecutive_faults) +
                                ": " + fault_what[k]);
  }

  ++waves_;
  return active.size();
}

std::size_t CampaignScheduler::run(std::size_t max_waves) {
  std::size_t waves = 0;
  while (step_wave() > 0) {
    ++waves;
    if (max_waves > 0 && waves >= max_waves) break;
  }
  return waves;
}

const mcs::SparseMcsEnvironment& CampaignScheduler::environment(
    std::size_t slot) const {
  DRCELL_CHECK(slot < slots_.size());
  return *slots_[slot].env;
}

const std::vector<std::uint32_t>& CampaignScheduler::action_log(
    std::size_t slot) const {
  DRCELL_CHECK(slot < slots_.size());
  return slots_[slot].action_log;
}

std::vector<CampaignResult> CampaignScheduler::results() const {
  std::vector<CampaignResult> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    CampaignResult r =
        summarize_campaign(*slot.env, slot.selector->name(), slot.config);
    r.id = slot.id;
    r.quarantined = slot.state == CampaignState::kQuarantined;
    r.quarantine_reason = slot.quarantine_reason;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace drcell::core
