// The 10,000-cell metro-scale workload (ROADMAP 10k tier), unlocked by the
// low-rank Nyström spatial sampler in data/synthetic_field.h: the exact
// O(cells³) Cholesky that generates every smaller dataset would need
// ~3·10¹¹ flops and an 800 MB kernel matrix at this size, the Nyström
// factor needs O(cells·k²) with k = 256 landmarks. The bench measures the
// sampler (cold, cached, and paired against the exact factorisation at the
// largest size where the exact path is still feasible), the completion fit
// on a 10,000 x 48 window, and a full sensing cycle end to end.
//
// CI runs this bench with --quick and uploads the JSON as an artifact; the
// committed-baseline comparison gates only the 1000-cell bench
// (tools/compare_bench.py refuses quick-mode reports — policy in
// bench/README.md).
//
//   ./build/bench_scale_10000cell [--quick] [--json [path]]
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/synthetic_field.h"
#include "mcs/environment.h"
#include "mcs/quality.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "rl/dqn_trainer.h"
#include "rl/drqn_qnetwork.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace drcell;

namespace {

constexpr std::size_t kWindowCycles = 48;
constexpr double kSparseDensity = 0.10;

/// Field-sampler pairs. `scale_field_sample_10000cell` is the headline: a
/// cold 10,000-cell Nyström draw against the exact dense Cholesky at 2,000
/// cells — the largest size where the exact path still fits a bench budget.
/// NB the reference solves 1/5th the cells, so the reported ratio *heavily
/// understates* the true same-size gap; `scale_field_sample_2000cell_lowrank`
/// makes that gap concrete by running both samplers on the identical
/// 2,000-cell problem.
void bench_field_samplers(bench::JsonReporter& report, bool quick) {
  const std::size_t cycles = 4;  // keep the assemble step negligible
  const auto metro_coords = data::grid_coords(100, 100, 100.0, 100.0);
  const auto mid_coords = data::grid_coords(40, 50, 100.0, 100.0);
  const data::FieldParams metro = data::metro_scale_field_params();
  data::FieldParams mid_exact = metro;
  mid_exact.nystrom_threshold = 100000;  // force exact at 2,000 cells
  data::FieldParams mid_lowrank = metro;
  mid_lowrank.nystrom_threshold = 0;  // force Nyström at 2,000 cells

  const double target = quick ? 400.0 : 1500.0;
  Rng rng(3);
  // Registry reset per iteration: every draw pays the cold factorisation
  // (the cached path is measured separately below).
  const auto cold_draw = [&](const std::vector<cs::CellCoord>& coords,
                             const data::FieldParams& params) {
    data::SyntheticFieldGenerator::reset_shared_factor_cache();
    data::SyntheticFieldGenerator gen(coords);
    (void)gen.generate(params, cycles, rng);
  };
  const auto nystrom_10k = bench::measure_ms(
      [&] { cold_draw(metro_coords, metro); }, target, 50);
  const auto exact_2k = bench::measure_ms(
      [&] { cold_draw(mid_coords, mid_exact); }, target, 50);
  const auto nystrom_2k = bench::measure_ms(
      [&] { cold_draw(mid_coords, mid_lowrank); }, target, 50);

  report.add_with_reference("scale_field_sample_10000cell",
                            nystrom_10k.wall_ms, nystrom_10k.iterations,
                            1e3 / nystrom_10k.wall_ms, exact_2k.wall_ms,
                            exact_2k.iterations);
  report.add_with_reference("scale_field_sample_2000cell_lowrank",
                            nystrom_2k.wall_ms, nystrom_2k.iterations,
                            1e3 / nystrom_2k.wall_ms, exact_2k.wall_ms,
                            exact_2k.iterations);
  std::cout << "field sample: Nyström@10000 "
            << format_double(nystrom_10k.wall_ms, 1) << " ms, exact@2000 "
            << format_double(exact_2k.wall_ms, 1) << " ms, Nyström@2000 "
            << format_double(nystrom_2k.wall_ms, 1)
            << " ms (same-size speedup "
            << format_double(exact_2k.wall_ms / nystrom_2k.wall_ms, 2)
            << "x)\n";

  // The spatial-factor registry (keyed by coordinates and the spatial
  // FieldParams fields): one generator re-generating episodes pays the
  // Nyström build once.
  data::SyntheticFieldGenerator cached_gen(metro_coords);
  (void)cached_gen.generate(metro, cycles, rng);  // populate the cache
  const std::size_t hits_before =
      data::SyntheticFieldGenerator::shared_factor_cache_hits();
  const auto cached = bench::measure_ms(
      [&] { (void)cached_gen.generate(metro, cycles, rng); }, target, 50);
  report.add_with_reference("scale_field_regen_cached_10000cell",
                            cached.wall_ms, cached.iterations,
                            1e3 / cached.wall_ms, nystrom_10k.wall_ms,
                            nystrom_10k.iterations);
  std::cout << "  cached regen@10000 " << format_double(cached.wall_ms, 1)
            << " ms ("
            << data::SyntheticFieldGenerator::shared_factor_cache_hits() -
                   hits_before
            << " factor cache hits)\n";
}

/// 10,000 x 48 window: the first half fully observed (warm start), the rest
/// at the 10% scale-target density.
cs::PartialMatrix make_metro_window(const mcs::SensingTask& task) {
  cs::PartialMatrix window(task.num_cells(), kWindowCycles);
  Rng rng(3);
  for (std::size_t c = 0; c < kWindowCycles; ++c)
    for (std::size_t cell = 0; cell < task.num_cells(); ++cell)
      if (c < kWindowCycles / 2 || rng.bernoulli(kSparseDensity))
        window.set(cell, c, task.truth(cell, c));
  return window;
}

void bench_completion(const mcs::SensingTask& task,
                      bench::JsonReporter& report, bool quick) {
  const auto window = make_metro_window(task);
  cs::MatrixCompletionOptions cold_opts;
  cold_opts.warm_start = false;
  const cs::MatrixCompletion cold(cold_opts);
  const auto run = bench::measure_ms(
      [&] { (void)cold.infer(window); }, quick ? 400.0 : 1200.0, 20);
  report.add("metro_als_infer_cold", run.wall_ms, run.iterations,
             1e3 / run.wall_ms);
  std::cout << "10000-cell cold ALS infer: " << format_double(run.wall_ms, 1)
            << " ms\n";

  // The metro training loop's window: 23 fully observed cycles plus the
  // current one, sensed one cell per step. Every call senses one more cell
  // and re-fits the warm engine, whose cached factors pass the trust check,
  // so each call is one short warm polish. Nearly every row observes the
  // same 23 cycles and every warm column the same 10,000 cells: the long
  // runs of equal lists that the cold window's sparse half lacks.
  constexpr std::size_t kStepCycles = 24, kCurrent = kStepCycles - 1;
  cs::PartialMatrix step_window(task.num_cells(), kStepCycles);
  for (std::size_t c = 0; c < kCurrent; ++c)
    for (std::size_t cell = 0; cell < task.num_cells(); ++cell)
      step_window.set(cell, c, task.truth(cell, c));
  std::size_t sensed = 0;
  const auto sense_next = [&] {
    // 43 is coprime to 10,000, so the picks are distinct cells.
    const std::size_t cell = (11 + 43 * sensed++) % task.num_cells();
    step_window.set(cell, kCurrent, task.truth(cell, kCurrent));
  };
  while (sensed < 16) sense_next();
  const cs::MatrixCompletion warm;
  (void)warm.infer(step_window);  // the cold fit the steps resume from
  const auto step = bench::measure_ms(
      [&] {
        sense_next();
        (void)warm.infer(step_window);
      },
      quick ? 400.0 : 1200.0, 200);
  report.add("metro_als_infer_warm_step", step.wall_ms, step.iterations,
             1e3 / step.wall_ms);
  std::cout << "10000-cell warm ALS step (one more sensed cell): "
            << format_double(step.wall_ms, 2) << " ms\n";
}

void bench_environment(const mcs::SensingTask& task,
                       bench::JsonReporter& report, bool quick) {
  auto test_task = std::make_shared<const mcs::SensingTask>(
      task.slice_cycles(kWindowCycles, task.num_cycles()));
  mcs::EnvOptions options;
  options.inference_window = kWindowCycles;
  options.min_observations = 10;
  options.max_selections_per_cycle = 300;  // sense at most 3% of the metro
  options.warm_start = task.slice_cycles(0, kWindowCycles).ground_truth();
  auto env = mcs::SparseMcsEnvironment(
      test_task, std::make_shared<cs::MatrixCompletion>(),
      std::make_shared<mcs::LooBayesianGate>(1.0, 0.9), options);
  Rng rng(5);
  const auto pick = [&rng](const mcs::SparseMcsEnvironment& e) {
    const auto& allowed = e.unsensed_cells();
    return allowed[rng.uniform_index(allowed.size())];
  };
  const auto cycle = bench::measure_ms(
      [&] {
        if (env.episode_done()) env.reset();
        (void)env.run_cycle(pick);
      },
      quick ? 500.0 : 1500.0, 20);
  report.add("metro_environment_cycle", cycle.wall_ms, cycle.iterations,
             1e3 / cycle.wall_ms);
  std::cout << "10000-cell environment sensing cycle: "
            << format_double(cycle.wall_ms, 1) << " ms ("
            << format_double(1e3 / cycle.wall_ms, 2) << " cycles/s)\n";
}

/// ~`count` distinct ascending indices in [lo, hi) — a step row's
/// selection-union ones.
std::vector<std::uint32_t> random_ones(std::size_t lo, std::size_t hi,
                                       std::size_t count, Rng& rng) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(static_cast<std::uint32_t>(lo + rng.uniform_index(hi - lo)));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The dense full-action floor of `scale_train_step_10000cell`: the batched
/// DQN update (rl::DqnTrainer's default options) with every minibatch
/// densified into k [batch x cells] steps and the bootstrap and TD loss over
/// the full cells-wide action space. Built from public API only — the
/// library trains every network through its sparse minibatch path.
class DenseFullActionStep {
 public:
  DenseFullActionStep(std::size_t cells, std::size_t k, std::size_t hidden,
                      std::size_t batch, Rng& net_rng)
      : cells_(cells),
        k_(k),
        batch_(batch),
        online_(std::make_unique<rl::DrqnQNetwork>(cells, k, hidden, net_rng)),
        target_(online_->clone_architecture(net_rng)),
        adam_(online_->parameters(), 1e-3),
        state_(k),
        next_(k) {
    nn::copy_parameters(online_->parameters(), target_->parameters());
  }

  /// Stores one transition: sparse one-index states over k·cells, a
  /// cells-wide next mask.
  void add(rl::Experience e) { pool_.push_back(std::move(e)); }

  /// One update on a uniformly sampled minibatch; returns the TD loss.
  double step(Rng& rng) {
    constexpr double kGamma = 0.9, kHuberDelta = 1.0, kGradClipNorm = 5.0;
    constexpr std::size_t kTargetSyncInterval = 150;
    indices_.clear();
    for (std::size_t i = 0; i < batch_; ++i)
      indices_.push_back(rng.uniform_index(pool_.size()));
    for (std::size_t j = 0; j < k_; ++j) {
      state_[j].resize_overwrite(batch_, cells_);
      next_[j].resize_overwrite(batch_, cells_);
    }
    for (std::size_t i = 0; i < batch_; ++i) {
      densify_row(pool_[indices_[i]].state_ones, state_, i);
      densify_row(pool_[indices_[i]].next_state_ones, next_, i);
    }

    const Matrix* q_next = nullptr;
    const Matrix* q_pred = nullptr;
    util::ThreadPool::global().parallel_for(2, [&](std::size_t lane) {
      if (lane == 0)
        q_next = &target_->forward_batch(next_);
      else
        q_pred = &online_->forward_batch(state_);
    });

    targets_.resize(batch_, cells_);
    mask_.resize(batch_, cells_);
    for (std::size_t i = 0; i < batch_; ++i) {
      const rl::Experience& e = pool_[indices_[i]];
      double boot = 0.0;
      if (!e.terminal)
        boot = (*q_next)(i, rl::masked_argmax_row(*q_next, i, e.next_mask));
      targets_(i, e.action) = e.reward + kGamma * boot;
      mask_(i, e.action) = 1.0;
    }
    const auto loss =
        nn::masked_huber_loss(*q_pred, targets_, mask_, kHuberDelta);
    adam_.zero_grad();
    online_->backward(loss.grad);
    nn::clip_grad_norm(online_->parameters(), kGradClipNorm);
    adam_.step(&util::ThreadPool::global());
    if (++steps_ % kTargetSyncInterval == 0)
      nn::copy_parameters(online_->parameters(), target_->parameters());
    return loss.value;
  }

 private:
  /// Zeroes row `row` of every step, then sets the state's ones.
  void densify_row(const std::vector<std::uint32_t>& ones,
                   std::vector<Matrix>& steps, std::size_t row) const {
    for (Matrix& step : steps) {
      auto r = step.row(row);
      std::fill(r.begin(), r.end(), 0.0);
    }
    for (const std::uint32_t flat : ones)
      steps[flat / cells_](row, flat % cells_) = 1.0;
  }

  std::size_t cells_, k_, batch_;
  rl::QNetworkPtr online_;
  rl::QNetworkPtr target_;
  nn::Adam adam_;
  std::vector<rl::Experience> pool_;
  std::vector<std::size_t> indices_;
  std::vector<Matrix> state_, next_;
  Matrix targets_, mask_;
  std::size_t steps_ = 0;
};

/// The metro training tier headline: one full batched DRQN train step at
/// 10,000 cells through the sparse gather + candidate-subset engine,
/// against the dense full-action floor (DenseFullActionStep, 10k-wide mask
/// bootstrap and TD loss) on equivalent transitions. The pair carries a
/// hard >=3x self-gate in main() (skipped with --quick / --no-perf-gate;
/// tests/sparse_gather_test.cpp pins the covering-candidate bit-identity
/// separately).
void bench_train_step(bench::JsonReporter& report, bool quick) {
  const std::size_t cells = 10000, k = 2, pool = 256;
  const std::size_t ones_per_step = 300;  // the per-cycle selection cap
  const std::size_t n_candidates = 64;

  rl::DqnOptions opt;
  opt.batch_size = 32;
  opt.min_replay = 32;
  opt.replay_capacity = pool;
  opt.candidate_training = true;
  Rng fast_rng(17);
  rl::DqnTrainer fast(
      std::make_unique<rl::DrqnQNetwork>(cells, k, 64, fast_rng), opt, 23);
  Rng dense_rng(17);
  DenseFullActionStep dense(cells, k, 64, opt.batch_size, dense_rng);
  Rng draw(23);

  Rng fill(29);
  for (std::size_t i = 0; i < pool; ++i) {
    rl::Experience e;
    e.sparse_states = true;
    for (std::size_t j = 0; j < k; ++j) {
      const auto ones =
          random_ones(j * cells, (j + 1) * cells, ones_per_step, fill);
      e.state_ones.insert(e.state_ones.end(), ones.begin(), ones.end());
      const auto next =
          random_ones(j * cells, (j + 1) * cells, ones_per_step, fill);
      e.next_state_ones.insert(e.next_state_ones.end(), next.begin(),
                               next.end());
    }
    e.action = fill.uniform_index(cells);
    e.reward = fill.uniform(-1.0, 2.0);
    e.terminal = fill.bernoulli(0.1);

    rl::Experience full = e;
    e.next_candidates = random_ones(0, cells, n_candidates, fill);
    full.next_mask.assign(cells, 1);
    fast.observe(std::move(e));
    dense.add(std::move(full));
  }

  const auto fast_run = bench::measure_ms(
      [&] { (void)fast.train_step(); }, quick ? 300.0 : 900.0, 2000);
  // The dense step moves four [32 x 10000] state matrices plus the
  // full-width loss per iteration; cap its budget tightly.
  const auto dense_run = bench::measure_ms(
      [&] { (void)dense.step(draw); }, quick ? 300.0 : 900.0, 20);
  report.add_with_reference("scale_train_step_10000cell", fast_run.wall_ms,
                            fast_run.iterations, 1e3 / fast_run.wall_ms,
                            dense_run.wall_ms, dense_run.iterations);
  std::cout << "10000-cell DRQN train step: sparse+candidates "
            << format_double(fast_run.wall_ms, 2) << " ms, dense full-action "
            << format_double(dense_run.wall_ms, 2) << " ms, speedup "
            << format_double(dense_run.wall_ms / fast_run.wall_ms, 2)
            << "x\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const std::string backend = bench::select_backend(argc, argv);
  const std::string json =
      bench::json_path(argc, argv, "BENCH_scale_10000cell.json");
  bench::JsonReporter report("scale_10000cell", quick);
  report.set_backend(backend);
  report.set_hardware_concurrency(std::thread::hardware_concurrency());
  Stopwatch total;

  std::cout << "generating 10000-cell metro-scale task (100 x 100 grid, "
               "Nyström sampler)...\n";
  Stopwatch gen_watch;
  const auto task = data::make_metro_scale_task(100, 100, quick ? 72 : 96);
  const double gen_ms = gen_watch.elapsed_ms();
  report.add("metro_scale_generation", gen_ms, 1, 1e3 / gen_ms);
  std::cout << "  " << task.num_cells() << " cells x " << task.num_cycles()
            << " cycles in " << format_double(gen_ms / 1e3, 2) << " s\n";

  bench_field_samplers(report, quick);
  bench_completion(task, report, quick);
  bench_environment(task, report, quick);
  bench_train_step(report, quick);

  std::cout << "total bench time: "
            << format_double(total.elapsed_seconds(), 1) << " s\n";
  // Write the report before gating so the artifact exists for debugging.
  const int exit_code = bench::finish_report(report, json, total);

  // Hard self-gate for the metro training tier: the sparse gather +
  // candidate-subset train step must stay >= 3x ahead of the dense
  // full-action engine. --no-perf-gate (and quick mode, whose budgets are
  // too short for stable ratios) skips it; unoptimised builds always do.
  bool no_gate = quick;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--no-perf-gate") == 0) no_gate = true;
#ifndef NDEBUG
  no_gate = true;
#endif
  const double train_speedup = report.speedup("scale_train_step_10000cell");
  if (!no_gate && train_speedup < 3.0) {
    std::cerr << "PERF REGRESSION: 10000-cell train step speedup "
              << format_double(train_speedup, 2) << "x (must be >= 3x)\n";
    return 1;
  }
  return exit_code;
}
