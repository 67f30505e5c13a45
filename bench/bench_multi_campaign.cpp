// Multi-campaign serving bench — the scale lane of the campaign scheduler
// (core/campaign_scheduler.h): {10, 100, 1000} concurrent city-scale
// campaigns stepped in waves over the shared pool, with the multicore lane
// re-running the 100-campaign tier at workers in {1, 4, ncores}.
//
// Hard gates (exit non-zero, independent of --no-perf-gate):
//   * batched stepping is bit-identical per campaign to solo stepping with
//     the same seeds (action logs AND episode stats, vs both an unbatched
//     fleet, whose DR-Cell campaigns step through select(), and the
//     single-campaign runner);
//   * worker count never changes any campaign's trace (the pooled STEP
//     phase is index-exclusive by contract);
//   * N same-spatial-params campaigns pay ONE factorisation: the shared
//     factor registry records >= N-1 hits;
//   * --resume-smoke: a fleet checkpointed mid-flight and resumed in a
//     fresh scheduler finishes bit-identical to an uninterrupted run (the
//     CI resume smoke job runs exactly this mode);
//   * --fault-drill: the fault-tolerance drills — injected faults into K of
//     N campaigns quarantine exactly those K while the other N-K finish
//     bit-identical to a no-fault run; a transiently faulting step is
//     retried and the WHOLE fleet stays bit-identical; a NaN-poisoned
//     shared agent is detected and the fleet restored from the checkpoint
//     ring bit-identically; truncated/bit-flipped checkpoints are rejected
//     as corruption (exit non-zero on any leak or failed recovery);
//   * --fault-spec-smoke: expects a DRCELL_FAULT_SPEC of
//     'env.step@rand-1' in the environment (the CI ASan job sets it) and
//     asserts the env-armed spec fires and quarantines exactly rand-1.
//
// Perf gate (skipped under --no-perf-gate): building same-geometry tasks
// against a warm shared registry must be >= 3x faster than paying the
// spatial factorisation per task (the op CI tracks as
// multi_campaign_field_gen_shared_cache).
//
//   ./build/bench_multi_campaign [--quick] [--json [path]]
//                                [--no-perf-gate] [--resume-smoke]
//                                [--fault-drill] [--fault-spec-smoke]
#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/campaign_scheduler.h"
#include "core/checkpoint.h"
#include "data/synthetic_field.h"
#include "util/fault_injection.h"

namespace {

using namespace drcell;
using bench::JsonReporter;
using bench::measure_ms;

cs::InferenceEnginePtr make_engine() {
  return std::make_shared<cs::MatrixCompletion>();
}

// ---------------------------------------------------------------------------
// Fleet construction

/// City-scale campaign sized so one wave's work is dominated by inference:
/// min_observations == max_selections_per_cycle makes the gate consult (and
/// its 1000-cell completion) fire exactly once per cycle.
struct CityFleetSpec {
  std::size_t campaigns = 10;
  std::size_t cycles = 4;
  std::uint64_t seed_base = 5000;
};

core::CampaignConfig city_campaign_config(const mcs::SensingTask& task,
                                          std::size_t warm_cycles) {
  core::CampaignConfig campaign;
  campaign.epsilon = 1.0;
  campaign.p = 0.9;
  campaign.env.inference_window = 4;
  campaign.env.min_observations = 12;
  campaign.env.max_selections_per_cycle = 12;
  campaign.env.warm_start = task.slice_cycles(0, warm_cycles).ground_truth();
  return campaign;
}

/// Same spatial params, different seeds: every task draws a different field
/// over the same 25 x 40 grid, so the fleet exercises the process-wide
/// shared factor registry (one Cholesky for the whole fleet).
void populate_city_fleet(core::CampaignScheduler& scheduler,
                         const CityFleetSpec& spec) {
  const std::size_t warm = 4;
  for (std::size_t i = 0; i < spec.campaigns; ++i) {
    const auto task = std::make_shared<const mcs::SensingTask>(
        data::make_city_scale_task(25, 40, warm + spec.cycles,
                                   spec.seed_base + i));
    core::CampaignConfig campaign = city_campaign_config(*task, warm);
    auto test_task = std::make_shared<const mcs::SensingTask>(
        task->slice_cycles(warm, warm + spec.cycles));
    scheduler.add_campaign("city-" + std::to_string(i), campaign, test_task,
                           make_engine,
                           std::make_shared<baselines::RandomSelector>(
                               900 + spec.seed_base + i));
  }
}

/// A frozen DR-Cell policy the scheduler does not batch: it wraps a
/// DrCellPolicy instead of being one and forwards select() and name() only,
/// so the scheduler steps it through select() with one B = 1 forward per
/// campaign — the unbatched floor of
/// gate (a) and of the batched-wave perf pair. The agent is hidden too, so
/// the scheduler runs no health scan for it.
class UnbatchedDrCellPolicy final : public baselines::CellSelector {
 public:
  explicit UnbatchedDrCellPolicy(core::DrCellAgent& agent) : policy_(agent) {}
  std::size_t select(const mcs::SparseMcsEnvironment& env) override {
    return policy_.select(env);
  }
  std::string name() const override { return policy_.name(); }

 private:
  core::DrCellPolicy policy_;
};

/// Small mixed fleet for the bit-identity gates: `drqn` frozen DR-Cell
/// campaigns sharing ONE (deterministically initialised) agent — the
/// batched group — plus `random` RANDOM campaigns, all on the 36-cell
/// U-Air-like task.
struct MixedFleet {
  std::shared_ptr<core::DrCellAgent> agent;
  std::shared_ptr<const mcs::SensingTask> test_task;
  core::CampaignConfig campaign;
  std::size_t drqn = 3;
  std::size_t random = 3;

  MixedFleet(std::size_t drqn_n, std::size_t random_n)
      : drqn(drqn_n), random(random_n) {
    const auto dataset = data::make_uair_like(2013);
    test_task = std::make_shared<const mcs::SensingTask>(
        dataset.pm25.slice_cycles(24, 48));
    core::DrCellConfig config;
    config.lstm_hidden = 24;
    config.env.min_observations = 3;
    config.env.inference_window = 8;
    // Deterministic random-init weights: bit-identity does not need a
    // trained policy, only a fixed one.
    agent = std::make_shared<core::DrCellAgent>(test_task->num_cells(),
                                               config);
    campaign.epsilon = 9.0 / 36.0;
    campaign.p = 0.9;
    campaign.env = config.env;
    campaign.env.history_cycles = config.history_cycles;
  }

  /// `batched = false` serves the DR-Cell campaigns through
  /// UnbatchedDrCellPolicy instead.
  void populate(core::CampaignScheduler& scheduler,
                bool batched = true) const {
    for (std::size_t i = 0; i < drqn; ++i) {
      std::shared_ptr<baselines::CellSelector> policy;
      if (batched)
        policy = std::make_shared<core::DrCellPolicy>(*agent);
      else
        policy = std::make_shared<UnbatchedDrCellPolicy>(*agent);
      scheduler.add_campaign("drqn-" + std::to_string(i), campaign, test_task,
                             make_engine, std::move(policy));
    }
    for (std::size_t i = 0; i < random; ++i)
      scheduler.add_campaign(
          "rand-" + std::to_string(i), campaign, test_task, make_engine,
          std::make_shared<baselines::RandomSelector>(200 + i));
  }
};

// ---------------------------------------------------------------------------
// Bit-compare helpers (seconds excluded by construction: scheduler results
// carry seconds = 0)

bool same_stats(const mcs::EpisodeStats& a, const mcs::EpisodeStats& b) {
  return a.cycles == b.cycles && a.total_selections == b.total_selections &&
         a.total_reward == b.total_reward && a.total_cost == b.total_cost &&
         a.cycle_errors == b.cycle_errors &&
         a.cycle_selected == b.cycle_selected;
}

bool same_result(const core::CampaignResult& a, const core::CampaignResult& b,
                 bool compare_id = true) {
  return (!compare_id || a.id == b.id) && a.selector == b.selector &&
         a.cycles == b.cycles && a.total_selected == b.total_selected &&
         a.avg_cells_per_cycle == b.avg_cells_per_cycle &&
         a.satisfaction_ratio == b.satisfaction_ratio &&
         a.mean_cycle_error == b.mean_cycle_error &&
         a.total_cost == b.total_cost && same_stats(a.stats, b.stats);
}

bool same_fleets(const core::CampaignScheduler& a,
                 const core::CampaignScheduler& b, const char* what) {
  const auto ra = a.results();
  const auto rb = b.results();
  if (ra.size() != rb.size()) {
    std::cerr << "GATE FAIL (" << what << "): fleet sizes differ\n";
    return false;
  }
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (!same_result(ra[i], rb[i]) || a.action_log(i) != b.action_log(i)) {
      std::cerr << "GATE FAIL (" << what << "): campaign '" << ra[i].id
                << "' diverged\n";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Gate (a): batched wave == unbatched wave == solo runner

bool gate_batched_bit_identity() {
  const MixedFleet fleet(3, 3);

  core::CampaignScheduler batched;
  fleet.populate(batched);
  batched.run();

  core::CampaignScheduler unbatched;
  // RANDOM selectors are stateful: rebuild the fleet so their streams start
  // fresh (frozen DR-Cell shares the agent, which solo stepping reads only).
  fleet.populate(unbatched, /*batched=*/false);
  unbatched.run();

  if (!same_fleets(batched, unbatched, "batched vs unbatched")) return false;

  // Solo reference: the single-campaign runner, same seeds.
  const auto batched_results = batched.results();
  for (std::size_t i = 0; i < fleet.drqn; ++i) {
    core::DrCellPolicy solo_policy(*fleet.agent);
    const auto solo = core::run_campaign(fleet.test_task, make_engine(),
                                         solo_policy, fleet.campaign);
    if (!same_result(solo, batched_results[i], /*compare_id=*/false)) {
      std::cerr << "GATE FAIL (scheduler vs run_campaign): drqn-" << i
                << " diverged\n";
      return false;
    }
  }
  {
    baselines::RandomSelector solo_random(200);  // seed of rand-0
    const auto solo = core::run_campaign(fleet.test_task, make_engine(),
                                         solo_random, fleet.campaign);
    if (!same_result(solo, batched_results[fleet.drqn],
                     /*compare_id=*/false)) {
      std::cerr << "GATE FAIL (scheduler vs run_campaign): rand-0 diverged\n";
      return false;
    }
  }
  std::cout << "gate: batched stepping bit-identical to solo stepping\n";
  return true;
}

// ---------------------------------------------------------------------------
// Gate: shared factor registry

bool gate_shared_cache(std::size_t n_tasks) {
  data::SyntheticFieldGenerator::reset_shared_factor_cache();
  for (std::size_t i = 0; i < n_tasks; ++i)
    data::make_city_scale_task(25, 40, /*cycles=*/2, /*seed=*/7000 + i);
  const std::size_t hits =
      data::SyntheticFieldGenerator::shared_factor_cache_hits();
  if (hits < n_tasks - 1) {
    std::cerr << "GATE FAIL (shared factor cache): " << n_tasks
              << " same-params tasks produced only " << hits
              << " registry hits (need >= " << (n_tasks - 1) << ")\n";
    return false;
  }
  std::cout << "gate: shared factor cache served " << hits << "/"
            << (n_tasks - 1) << "+ same-params factorisations\n";
  return true;
}

// ---------------------------------------------------------------------------
// Resume smoke: burst -> checkpoint -> fresh scheduler -> resume -> compare

int resume_smoke() {
  const MixedFleet fleet(3, 3);

  core::CampaignScheduler uninterrupted;
  fleet.populate(uninterrupted);
  uninterrupted.run();

  core::CampaignScheduler burst;
  fleet.populate(burst);
  burst.run(/*max_waves=*/25);
  std::ostringstream checkpoint(std::ios::binary);
  core::save_checkpoint(burst, checkpoint);

  // The burst scheduler is destroyed here; the resumed one is rebuilt from
  // the registry alone plus the checkpoint bytes.
  core::CampaignScheduler resumed;
  fleet.populate(resumed);
  std::istringstream in(checkpoint.str(), std::ios::binary);
  core::load_checkpoint(resumed, in);
  resumed.run();

  if (!same_fleets(uninterrupted, resumed, "resume smoke")) return 1;
  std::cout << "gate: checkpoint/resume bit-identical to uninterrupted run ("
            << checkpoint.str().size() << "-byte checkpoint)\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Fault drills (--fault-drill): every assert is a hard gate.

/// Healthy-fleet bit-identity vs a no-fault reference, skipping the slots
/// listed in `skip` (the deliberately faulted campaigns).
bool healthy_slots_identical(const core::CampaignScheduler& reference,
                             const core::CampaignScheduler& faulted,
                             const std::vector<std::size_t>& skip,
                             const char* what) {
  const auto ra = reference.results();
  const auto rb = faulted.results();
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (std::find(skip.begin(), skip.end(), i) != skip.end()) continue;
    if (!same_result(ra[i], rb[i]) ||
        reference.action_log(i) != faulted.action_log(i)) {
      std::cerr << "DRILL FAIL (" << what << "): healthy campaign '"
                << ra[i].id << "' diverged from the no-fault run\n";
      return false;
    }
  }
  return true;
}

/// The first incident of `kind`, or nullptr.
const core::Incident* find_incident(const core::CampaignScheduler& s,
                                    const std::string& kind) {
  for (const auto& inc : s.incidents())
    if (inc.kind == kind) return &inc;
  return nullptr;
}

/// Drill 1 — quarantine isolation: a persistent env.step fault in ONE
/// campaign must quarantine exactly that campaign; the other N-1 finish
/// bit-identical to the no-fault reference.
bool drill_quarantine_isolation(const core::CampaignScheduler& reference,
                                const MixedFleet& fleet) {
  util::FaultInjection::disarm_all();
  util::FaultSpec spec;
  spec.site = "env.step";
  spec.scope = "rand-1";  // fleet slot 4
  util::FaultInjection::arm(spec);

  core::CampaignScheduler faulted;
  fleet.populate(faulted);
  faulted.run();
  util::FaultInjection::disarm_all();

  const std::vector<std::size_t> quarantined = faulted.quarantined_slots();
  if (quarantined != std::vector<std::size_t>{4}) {
    std::cerr << "DRILL FAIL (quarantine isolation): expected exactly slot 4 "
                 "(rand-1) quarantined, got "
              << quarantined.size() << " slot(s)\n";
    return false;
  }
  if (!faulted.results()[4].quarantined ||
      faulted.results()[4].quarantine_reason.empty()) {
    std::cerr << "DRILL FAIL (quarantine isolation): result not flagged\n";
    return false;
  }
  if (!healthy_slots_identical(reference, faulted, {4},
                               "quarantine isolation"))
    return false;
  std::cout << "drill: persistent fault quarantined exactly rand-1; "
            << "5/6 campaigns bit-identical to the no-fault run\n";
  return true;
}

/// Drill 2 — transient recovery: a single injected step fault is retried
/// in-wave; the WHOLE fleet (faulted campaign included) finishes
/// bit-identical to the no-fault reference.
bool drill_transient_recovery(const core::CampaignScheduler& reference,
                              const MixedFleet& fleet) {
  util::FaultInjection::disarm_all();
  util::FaultSpec spec;
  spec.site = "env.step";
  spec.scope = "rand-0";
  spec.after = 5;   // let five steps through first
  spec.times = 1;   // then fire exactly once
  util::FaultInjection::arm(spec);

  core::CampaignScheduler faulted;
  fleet.populate(faulted);
  faulted.run();
  util::FaultInjection::disarm_all();

  if (!faulted.quarantined_slots().empty()) {
    std::cerr << "DRILL FAIL (transient recovery): a transient fault "
                 "escalated to quarantine\n";
    return false;
  }
  if (find_incident(faulted, "retry-recovered") == nullptr) {
    std::cerr << "DRILL FAIL (transient recovery): no retry-recovered "
                 "incident recorded\n";
    return false;
  }
  if (!same_fleets(reference, faulted, "transient recovery")) return false;
  std::cout << "drill: transient step fault retried in-wave; full fleet "
               "bit-identical to the no-fault run\n";
  return true;
}

/// Drill 3 — NaN rollback: poison the shared agent's weights mid-flight;
/// the health phase must detect it, restore the fleet from the checkpoint
/// ring, and finish bit-identical to the no-fault reference.
bool drill_nan_rollback() {
  util::FaultInjection::disarm_all();
  const MixedFleet fleet(3, 3);

  core::CampaignScheduler::Options ft_opts;
  ft_opts.fault.checkpoint_every_waves = 5;
  ft_opts.fault.checkpoint_ring = 3;

  core::CampaignScheduler reference(ft_opts);
  fleet.populate(reference);
  reference.run();
  if (reference.rollbacks() != 0) {
    std::cerr << "DRILL FAIL (nan rollback): clean reference run rolled "
                 "back\n";
    return false;
  }

  // Fresh fleet (fresh agent) for the poisoned run.
  const MixedFleet poisoned_fleet(3, 3);
  core::CampaignScheduler poisoned(ft_opts);
  poisoned_fleet.populate(poisoned);
  constexpr std::size_t kPoisonWave = 12;
  // The newest ring entry before the poison (cadence 5).
  constexpr std::size_t kRollbackWave = 10;
  poisoned.run(/*max_waves=*/kPoisonWave);
  poisoned_fleet.agent->trainer()
      .online()
      .parameters()[0]
      ->mutable_value()(0, 0) = std::numeric_limits<double>::quiet_NaN();
  poisoned.run();

  const core::Incident* unhealthy = find_incident(poisoned, "agent-unhealthy");
  const core::Incident* rollback = find_incident(poisoned, "rollback");
  if (poisoned.rollbacks() != 1 || rollback == nullptr) {
    std::cerr << "DRILL FAIL (nan rollback): expected exactly one rollback, "
              << "got " << poisoned.rollbacks() << "\n";
    return false;
  }
  // Detected by the HEALTH phase of the first wave after the poison, and
  // restored to the newest ring entry (the rollback is logged at the
  // restored wave).
  if (unhealthy == nullptr || unhealthy->wave != kPoisonWave ||
      rollback->wave != kRollbackWave) {
    std::cerr << "DRILL FAIL (nan rollback): expected agent-unhealthy at wave "
              << kPoisonWave << " and a rollback to wave " << kRollbackWave
              << ", got "
              << (unhealthy ? std::to_string(unhealthy->wave) : "none")
              << " and " << rollback->wave << "\n";
    return false;
  }
  if (!poisoned.quarantined_slots().empty()) {
    std::cerr << "DRILL FAIL (nan rollback): rollback leaked into "
                 "quarantine\n";
    return false;
  }
  if (poisoned_fleet.agent->trainer()
          .online()
          .parameters()[0]
          ->value().has_non_finite()) {
    std::cerr << "DRILL FAIL (nan rollback): weights still poisoned after "
                 "rollback\n";
    return false;
  }
  // The frozen policy is deterministic and selector streams were restored,
  // so the re-run of the rolled-back waves reproduces the reference run.
  if (!same_fleets(reference, poisoned, "nan rollback")) return false;
  std::cout << "drill: NaN-poisoned shared agent detected in wave "
            << kPoisonWave << " and restored from the checkpoint ring (wave "
            << kRollbackWave << "); fleet bit-identical to the no-fault run\n";
  return true;
}

/// Drill 4 — checkpoint corruption: truncation and bit-flips must surface
/// as CheckpointCorruptionError (never a silent wrong resume); the intact
/// stream must still load.
bool drill_checkpoint_corruption() {
  util::FaultInjection::disarm_all();
  const MixedFleet fleet(3, 3);
  core::CampaignScheduler burst;
  fleet.populate(burst);
  burst.run(/*max_waves=*/10);
  std::ostringstream out(std::ios::binary);
  core::save_checkpoint(burst, out);
  const std::string bytes = std::move(out).str();

  const auto expect_corruption = [&](const std::string& damaged,
                                     const char* what) {
    core::CampaignScheduler fresh;
    fleet.populate(fresh);
    try {
      std::istringstream in(damaged, std::ios::binary);
      core::load_checkpoint(fresh, in);
    } catch (const core::CheckpointCorruptionError&) {
      return true;
    } catch (const std::exception& e) {
      std::cerr << "DRILL FAIL (corruption/" << what
                << "): wrong error type: " << e.what() << "\n";
      return false;
    }
    std::cerr << "DRILL FAIL (corruption/" << what
              << "): damaged checkpoint loaded without error\n";
    return false;
  };

  if (!expect_corruption(bytes.substr(0, bytes.size() / 2), "truncated"))
    return false;
  std::string flipped = bytes;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  if (!expect_corruption(flipped, "bit-flip")) return false;

  core::CampaignScheduler fresh;
  fleet.populate(fresh);
  std::istringstream in(bytes, std::ios::binary);
  core::load_checkpoint(fresh, in);  // intact stream must load
  std::cout << "drill: truncated/bit-flipped checkpoints rejected as "
               "corruption; intact stream loads\n";
  return true;
}

int fault_drill() {
  const MixedFleet fleet(3, 3);
  core::CampaignScheduler reference;
  fleet.populate(reference);
  reference.run();
  if (!reference.incidents().empty()) {
    std::cerr << "DRILL FAIL: no-fault run recorded incidents\n";
    return 1;
  }

  if (!drill_quarantine_isolation(reference, fleet)) return 1;
  if (!drill_transient_recovery(reference, fleet)) return 1;
  if (!drill_nan_rollback()) return 1;
  if (!drill_checkpoint_corruption()) return 1;
  std::cout << "all fault drills passed\n";
  return 0;
}

/// --fault-spec-smoke: the spec comes from the DRCELL_FAULT_SPEC
/// environment variable (the CI ASan job arms 'env.step@rand-1'), not from
/// code — this smokes the env-var parse + arm + fire + quarantine path.
int fault_spec_smoke() {
  if (!util::FaultInjection::enabled()) {
    std::cerr << "SMOKE FAIL: DRCELL_FAULT_SPEC armed nothing (set e.g. "
                 "DRCELL_FAULT_SPEC='env.step@rand-1')\n";
    return 1;
  }
  const MixedFleet fleet(3, 3);
  core::CampaignScheduler scheduler;
  fleet.populate(scheduler);
  scheduler.run();
  if (util::FaultInjection::fires("env.step", "rand-1") == 0) {
    std::cerr << "SMOKE FAIL: env-armed env.step@rand-1 never fired\n";
    return 1;
  }
  if (scheduler.quarantined_slots() != std::vector<std::size_t>{4}) {
    std::cerr << "SMOKE FAIL: expected exactly rand-1 (slot 4) "
                 "quarantined\n";
    return 1;
  }
  std::cout << "fault-spec smoke: env-armed fault fired "
            << util::FaultInjection::fires("env.step", "rand-1")
            << "x and quarantined exactly rand-1\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  // The correctness gates below are within-process bit-identity checks, so
  // they hold under any single exact-contract backend; the perf gate is
  // shape-level (shared registry vs rebuilt) and backend-agnostic.
  const std::string backend = bench::select_backend(argc, argv);
  const std::string json =
      bench::json_path(argc, argv, "BENCH_multi_campaign.json");
  bool perf_gate = true;
  bool smoke_only = false;
  bool drill_only = false;
  bool spec_smoke_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--no-perf-gate") perf_gate = false;
    if (std::string(argv[i]) == "--resume-smoke") smoke_only = true;
    if (std::string(argv[i]) == "--fault-drill") drill_only = true;
    if (std::string(argv[i]) == "--fault-spec-smoke") spec_smoke_only = true;
  }
  if (smoke_only) return resume_smoke();
  if (drill_only) return fault_drill();
  if (spec_smoke_only) return fault_spec_smoke();

  Stopwatch total;
  JsonReporter report("multi_campaign", quick);
  report.set_backend(backend);
  report.set_hardware_concurrency(std::thread::hardware_concurrency());
  std::cout << "multi-campaign serving bench (" << (quick ? "quick" : "full")
            << " mode)\n\n";

  // --- Correctness gates (always hard) ---------------------------------
  if (!gate_batched_bit_identity()) return 1;
  if (!gate_shared_cache(quick ? 4 : 8)) return 1;
  if (resume_smoke() != 0) return 1;

  // --- Shared-registry perf pair ---------------------------------------
  // Optimised: N same-geometry generators against a warm registry pay one
  // lookup each. Reference: the registry is reset before every build, so
  // each generator pays the full 1000-cell spatial Cholesky — exactly what
  // every campaign of a fleet paid before the process-wide cache.
  {
    const auto coords = data::grid_coords(25, 40, 100.0, 100.0);
    data::FieldParams params;
    params.spatial_length = 600.0;
    params.nugget = 0.02;
    params.num_modes = 6;
    const std::size_t gens_per_call = 4;
    const auto build_fleet_fields = [&] {
      for (std::size_t i = 0; i < gens_per_call; ++i) {
        data::SyntheticFieldGenerator gen(coords);
        Rng rng(400 + i);
        gen.generate(params, 2, rng);
      }
    };
    data::SyntheticFieldGenerator::reset_shared_factor_cache();
    const auto warm =
        measure_ms(build_fleet_fields, quick ? 200.0 : 600.0, 50);
    const auto cold = measure_ms(
        [&] {
          data::SyntheticFieldGenerator::reset_shared_factor_cache();
          build_fleet_fields();
        },
        quick ? 300.0 : 1000.0, 50);
    report.add_with_reference("multi_campaign_field_gen_shared_cache",
                              warm.wall_ms, warm.iterations,
                              1e3 / warm.wall_ms, cold.wall_ms,
                              cold.iterations);
    std::cout << "shared-registry field gen: " << format_double(warm.wall_ms, 1)
              << " ms warm vs " << format_double(cold.wall_ms, 1)
              << " ms cold ("
              << format_double(
                     report.speedup("multi_campaign_field_gen_shared_cache"), 2)
              << "x)\n";
    if (perf_gate &&
        report.speedup("multi_campaign_field_gen_shared_cache") < 3.0) {
      std::cerr << "PERF GATE FAIL: shared factor registry speedup < 3x\n";
      return 1;
    }
  }

  // --- Batched-wave perf pair ------------------------------------------
  // A pure serving fleet (32 frozen DR-Cell campaigns, one shared agent) on
  // the 36-cell task: batched waves score all campaigns with one
  // forward_batch; the unbatched reference runs 32 B = 1 forwards. Context
  // number (no hard gate): the win is batching overhead amortisation, and
  // at fleet sizes this small it is expected to be modest.
  {
    const std::size_t fleet_size = quick ? 8 : 32;
    const MixedFleet fleet(fleet_size, 0);
    const auto run_fleet = [&](bool batching) {
      core::CampaignScheduler scheduler;
      fleet.populate(scheduler, batching);
      scheduler.run(/*max_waves=*/quick ? 10 : 20);
    };
    const auto batched = measure_ms([&] { run_fleet(true); },
                                    quick ? 200.0 : 500.0, 20);
    const auto unbatched = measure_ms([&] { run_fleet(false); },
                                      quick ? 200.0 : 500.0, 20);
    report.add_with_reference("multi_campaign_batched_wave", batched.wall_ms,
                              batched.iterations, 1e3 / batched.wall_ms,
                              unbatched.wall_ms, unbatched.iterations);
    std::cout << "batched wave (" << fleet_size
              << " campaigns, shared agent): "
              << format_double(batched.wall_ms, 1) << " ms vs "
              << format_double(unbatched.wall_ms, 1) << " ms unbatched ("
              << format_double(report.speedup("multi_campaign_batched_wave"),
                               2)
              << "x)\n";
  }

  // --- Concurrent-campaign tiers ---------------------------------------
  // Aggregate serving throughput: N city-scale campaigns to completion,
  // reported as sensing cycles finished per second across the fleet.
  const std::vector<std::size_t> tiers =
      quick ? std::vector<std::size_t>{5, 20}
            : std::vector<std::size_t>{10, 100, 1000};
  for (const std::size_t n : tiers) {
    CityFleetSpec spec;
    spec.campaigns = n;
    spec.cycles = quick ? 2 : 4;
    core::CampaignScheduler scheduler;
    populate_city_fleet(scheduler, spec);
    Stopwatch sw;
    scheduler.run();
    const double ms = sw.elapsed_ms();
    std::size_t fleet_cycles = 0;
    for (const auto& r : scheduler.results()) fleet_cycles += r.cycles;
    const double cycles_per_sec = 1e3 * static_cast<double>(fleet_cycles) / ms;
    const std::string op = "multi_campaign_cycles_" + std::to_string(n);
    report.add(op, ms, 1, cycles_per_sec);
    std::cout << op << ": " << n << " campaigns, " << fleet_cycles
              << " cycles in " << format_double(ms, 0) << " ms ("
              << format_double(cycles_per_sec, 1) << " cycles/s)\n";
  }

  // --- Multicore lane: 100-campaign tier at workers in {1, 4, ncores} ---
  // Hard-gates worker-count invariance: every worker count must produce the
  // identical fleet trace (the pooled STEP phase is index-exclusive).
  {
    const std::size_t tier = quick ? 12 : 100;
    // "Workers" here counts executing lanes (pool threads + the
    // participating caller), so lane 1 is the serial floor and lane ncores
    // saturates the machine.
    const std::size_t ncores = util::ThreadPool::default_worker_count() + 1;
    std::vector<std::size_t> worker_counts{1, 4};
    if (ncores != 1 && ncores != 4) worker_counts.push_back(ncores);
    std::unique_ptr<core::CampaignScheduler> reference;
    for (const std::size_t workers : worker_counts) {
      util::ThreadPool pool(workers - 1);
      core::CampaignScheduler::Options opts;
      opts.pool = &pool;
      auto scheduler = std::make_unique<core::CampaignScheduler>(opts);
      CityFleetSpec spec;
      spec.campaigns = tier;
      spec.cycles = quick ? 2 : 4;
      populate_city_fleet(*scheduler, spec);
      Stopwatch sw;
      scheduler->run();
      const double ms = sw.elapsed_ms();
      std::size_t fleet_cycles = 0;
      for (const auto& r : scheduler->results()) fleet_cycles += r.cycles;
      const std::string op = "multi_campaign_" + std::to_string(tier) +
                             "_workers" + std::to_string(workers);
      report.add(op, ms, 1,
                 1e3 * static_cast<double>(fleet_cycles) / ms);
      std::cout << op << ": " << format_double(ms, 0) << " ms\n";
      if (reference == nullptr) {
        reference = std::move(scheduler);
      } else if (!same_fleets(*reference, *scheduler,
                              "worker-count invariance")) {
        return 1;
      }
    }
    std::cout << "gate: fleet trace identical for all worker counts\n";
  }

  std::cout << "\nall gates passed\n";
  return bench::finish_report(report, json, total);
}
