// Shared experiment plumbing for the paper-reproduction benches.
//
// Cycle allocation per dataset (mirrors Sec. 5.3): a fully-observed
// preliminary-study block warms up the inference window, the next block is
// the DRQN training stage, and the remainder is the deployed testing stage
// under the leave-one-out Bayesian (epsilon, p) gate.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/qbc_selector.h"
#include "baselines/random_selector.h"
#include "core/campaign.h"
#include "core/policy.h"
#include "core/trainer.h"
#include "cs/matrix_completion.h"
#include "data/datasets.h"
#include "linalg/backend.h"
#include "util/isa.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace drcell::bench {

/// `--quick` (or DRCELL_QUICK=1) shrinks budgets ~4x for smoke runs.
inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") return true;
  const char* env = std::getenv("DRCELL_QUICK");
  return env != nullptr && std::string(env) == "1";
}

/// `--backend <name>` selects the compute backend for the run (same
/// registry as the DRCELL_BACKEND env var; unknown names fail loudly via
/// the registry's check). Returns the selected backend's name so benches
/// can stamp it into their report; without the flag the default selection
/// order applies untouched. Gate policy: the hard perf and bit-identity
/// gates are calibrated for the native backend — benches relax or skip
/// them when another backend is selected (bench/README.md).
inline std::string select_backend(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--backend" && i + 1 < argc) {
      BackendRegistry::set_active(argv[i + 1]);
      break;
    }
  return BackendRegistry::active().name();
}

/// `--json [path]` enables the machine-readable perf report. With no path
/// the bench's default (e.g. BENCH_micro.json) is used; returns "" when the
/// flag is absent.
inline std::string json_path(int argc, char** argv,
                             const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--json") continue;
    if (i + 1 < argc && argv[i + 1][0] != '-') return argv[i + 1];
    return default_path;
  }
  return "";
}

/// Collects measurements and writes the BENCH_*.json perf report consumed
/// by CI and by future PRs comparing against this baseline. Schema is
/// documented in bench/README.md.
class JsonReporter {
 public:
  JsonReporter(std::string bench, bool quick)
      : bench_(std::move(bench)), quick_(quick) {}

  /// Stamps the compute backend the run executed under into the report
  /// (consumers ignore unknown keys, so older tooling is unaffected).
  void set_backend(std::string backend) { backend_ = std::move(backend); }

  /// Stamps the machine's core count into the report so scaling-efficiency
  /// baselines are interpretable (a ~1.0 pooled ratio recorded on a 1-core
  /// box is expected, not a regression) — consumers ignore unknown keys.
  void set_hardware_concurrency(unsigned cores) { cores_ = cores; }

  /// Records one op. `wall_ms` is the mean wall time of a single execution;
  /// `per_sec` is how many such executions fit in a second (for campaign
  /// benches this is sensing cycles per second).
  void add(const std::string& op, double wall_ms, double iterations,
           double per_sec) {
    entries_.push_back({op, wall_ms, iterations, per_sec, 0.0, false});
  }

  /// Records an optimised op together with the wall time of the retained
  /// naive reference implementation; the speedup lands in the report. The
  /// two runs are measured independently, so each carries its own iteration
  /// count.
  void add_with_reference(const std::string& op, double wall_ms,
                          double iterations, double per_sec,
                          double naive_wall_ms, double naive_iterations) {
    entries_.push_back({op, wall_ms, iterations, per_sec,
                        naive_wall_ms / wall_ms, true});
    entries_.push_back({op + "_naive_reference", naive_wall_ms,
                        naive_iterations, 1e3 / naive_wall_ms, 0.0, false});
  }

  double speedup(const std::string& op) const {
    for (const auto& e : entries_)
      if (e.op == op && e.has_speedup) return e.speedup;
    return 0.0;
  }

  /// Returns false (after printing why) when the report cannot be written,
  /// so benches can exit non-zero instead of silently dropping the artifact.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << '\n';
      return false;
    }
    out << "{\n  \"bench\": \"" << bench_ << "\",\n  \"quick\": "
        << (quick_ ? "true" : "false");
    if (!backend_.empty()) out << ",\n  \"backend\": \"" << backend_ << "\"";
    if (cores_ > 0) out << ",\n  \"hardware_concurrency\": " << cores_;
    // The ISA variant the dispatched kernels ran (util/isa.h): ratios such
    // as matmul_320 roughly double under AVX2, so reports are only
    // comparable at equal kernel_isa.
    out << ",\n  \"kernel_isa\": \"" << isa::name(isa::selected()) << "\"";
    out << ",\n  \"entries\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << "    {\"op\": \"" << e.op << "\", \"wall_ms\": "
          << format_double(e.wall_ms, 4) << ", \"iterations\": "
          << format_double(e.iterations, 0) << ", \"per_sec\": "
          << format_double(e.per_sec, 2);
      if (e.has_speedup)
        out << ", \"speedup_vs_naive\": " << format_double(e.speedup, 2);
      out << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.flush();
    if (!out.good()) {
      std::cerr << "failed while writing " << path << '\n';
      return false;
    }
    std::cout << "wrote " << path << '\n';
    return true;
  }

 private:
  struct Entry {
    std::string op;
    double wall_ms = 0.0;
    double iterations = 0.0;
    double per_sec = 0.0;
    double speedup = 0.0;
    bool has_speedup = false;
  };
  std::string bench_;
  bool quick_;
  std::string backend_;
  unsigned cores_ = 0;
  std::vector<Entry> entries_;
};

/// Standard bench epilogue: records total wall time and writes the JSON
/// report when --json was given. Returns the process exit code.
inline int finish_report(JsonReporter& report, const std::string& json,
                         const Stopwatch& total) {
  const double total_ms = total.elapsed_ms();
  report.add("total", total_ms, 1, 1e3 / total_ms);
  if (!json.empty() && !report.write(json)) return 1;
  return 0;
}

struct Measurement {
  double wall_ms = 0.0;  ///< mean wall time per call
  int iterations = 0;
};

/// Times `f` by running it until ~`target_ms` of wall time has accumulated
/// (after one untimed warm-up call), capped at `max_iters` executions.
template <typename F>
Measurement measure_ms(F&& f, double target_ms = 300.0, int max_iters = 1000) {
  f();  // warm-up: page in code and data, populate solver caches
  Measurement m;
  Stopwatch sw;
  while (m.iterations < max_iters) {
    f();
    ++m.iterations;
    if (sw.elapsed_ms() >= target_ms && m.iterations >= 3) break;
  }
  m.wall_ms = sw.elapsed_ms() / m.iterations;
  return m;
}

struct ExperimentSlices {
  std::shared_ptr<const mcs::SensingTask> train_task;
  std::shared_ptr<const mcs::SensingTask> test_task;
  Matrix train_warm;  ///< dense block preceding the training slice
  Matrix test_warm;   ///< dense block preceding the testing slice
};

/// Splits a task into warm/train/test blocks:
///   [0, warm)            fully observed preliminary data
///   [warm, warm+train)   training stage cycles
///   [warm+train, end)    testing stage cycles
/// The training environment is warmed by [0, warm); the testing environment
/// by the trailing `warm` cycles of the preliminary+training period (all of
/// which the organiser observed densely during the study).
inline ExperimentSlices make_slices(const mcs::SensingTask& full,
                                    std::size_t warm, std::size_t train) {
  ExperimentSlices s;
  s.train_task = std::make_shared<const mcs::SensingTask>(
      full.slice_cycles(warm, warm + train));
  s.test_task = std::make_shared<const mcs::SensingTask>(
      full.slice_cycles(warm + train, full.num_cycles()));
  s.train_warm = full.slice_cycles(0, warm).ground_truth();
  s.test_warm = full.slice_cycles(train, warm + train).ground_truth();
  return s;
}

/// The hyper-parameters used across the evaluation benches.
inline core::DrCellConfig paper_config(std::size_t num_cells,
                                       std::size_t window,
                                       std::size_t decay_steps) {
  core::DrCellConfig config;
  config.history_cycles = 2;
  config.lstm_hidden = 64;
  config.dqn.gamma = 0.9;
  config.dqn.learning_rate = 1e-3;
  config.dqn.batch_size = 32;
  config.dqn.min_replay = 256;
  config.dqn.replay_capacity = 20000;
  config.dqn.target_sync_interval = 150;
  config.dqn.epsilon = rl::EpsilonSchedule(1.0, 0.05, decay_steps);
  config.env.min_observations = 4;
  config.env.inference_window = window;
  config.env.reward_bonus = static_cast<double>(num_cells);
  config.env.cost = 1.0;
  return config;
}

inline cs::InferenceEnginePtr paper_engine() {
  return std::make_shared<cs::MatrixCompletion>();
}

/// Trains a DR-Cell agent on the training slice (ground-truth gate at
/// `epsilon`, warm-started window), as in the paper's training stage.
inline core::DrCellAgent train_drcell(const ExperimentSlices& slices,
                                      double epsilon,
                                      core::DrCellConfig config,
                                      std::size_t episodes,
                                      double* seconds = nullptr) {
  config.env.warm_start = slices.train_warm;
  core::DrCellAgent agent(slices.train_task->num_cells(), config);
  auto env = core::make_training_environment(slices.train_task,
                                             paper_engine(), epsilon, config);
  const auto result = core::train_agent(agent, env, episodes);
  if (seconds != nullptr) *seconds = result.seconds;
  return agent;
}

/// Runs the testing stage for one selector.
inline core::CampaignResult evaluate(const ExperimentSlices& slices,
                                     baselines::CellSelector& selector,
                                     double epsilon, double p,
                                     const core::DrCellConfig& config) {
  core::CampaignConfig campaign;
  campaign.epsilon = epsilon;
  campaign.p = p;
  campaign.env = config.env;
  campaign.env.history_cycles = config.history_cycles;
  campaign.env.warm_start = slices.test_warm;
  return core::run_campaign(slices.test_task, paper_engine(), selector,
                            campaign);
}

inline std::string pct(double fraction) {
  return format_double(100.0 * fraction, 1) + "%";
}

}  // namespace drcell::bench
