// Scale workload beyond the paper's 57 cells: a synthetic 1000-cell city
// deployment (ROADMAP scale target). Exercises the pieces that must hold up
// at many-cell scale — the blocked matmul behind the completion
// reconstruction, the ThreadPool-parallel ALS sweeps and LOO quality-gate
// solves, the pooled inference committee, the O(observed) sparse
// observation paths and the O(1) environment selection loop — and writes
// the BENCH_scale_1000cell.json report that CI gates against the committed
// baseline via tools/compare_bench.py (policy in bench/README.md).
//
//   ./build/bench_scale_1000cell [--quick] [--json [path]]
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "pre_refactor_drqn.h"
#include "cs/committee.h"
#include "cs/knn_inference.h"
#include "cs/mean_inference.h"
#include "cs/temporal_inference.h"
#include "mcs/environment.h"
#include "mcs/quality.h"
#include "rl/dqn_trainer.h"
#include "rl/drqn_qnetwork.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace drcell;

namespace {

constexpr std::size_t kWindowCycles = 48;
constexpr std::size_t kDenseCycles = 24;  // preliminary-study block
constexpr double kSparseDensity = 0.10;   // scale-target observation rate

/// 1000 x 48 window: the first 24 cycles fully observed (warm start), the
/// rest at the 10% density the scale target is specified at.
cs::PartialMatrix make_scale_window(const mcs::SensingTask& task) {
  cs::PartialMatrix window(task.num_cells(), kWindowCycles);
  Rng rng(3);
  for (std::size_t c = 0; c < kWindowCycles; ++c)
    for (std::size_t cell = 0; cell < task.num_cells(); ++cell)
      if (c < kDenseCycles || rng.bernoulli(kSparseDensity))
        window.set(cell, c, task.truth(cell, c));
  return window;
}

/// Successive sensing-cycle windows, each revealing ~`reveals` more entries
/// of the sparse block — the warm-start resume pattern of a live campaign.
std::vector<cs::PartialMatrix> make_window_sequence(
    const mcs::SensingTask& task, std::size_t steps, std::size_t reveals) {
  std::vector<cs::PartialMatrix> windows;
  cs::PartialMatrix window = make_scale_window(task);
  Rng rng(71);
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t k = 0; k < reveals; ++k) {
      const std::size_t cell = rng.uniform_index(task.num_cells());
      const std::size_t cycle =
          kDenseCycles + rng.uniform_index(kWindowCycles - kDenseCycles);
      if (!window.observed(cell, cycle))
        window.set(cell, cycle, task.truth(cell, cycle));
    }
    windows.push_back(window);
  }
  return windows;
}

void bench_completion(const mcs::SensingTask& task,
                      bench::JsonReporter& report, bool quick) {
  const auto window = make_scale_window(task);

  // Cold solve, serial vs pooled ALS sweeps. On single-core hardware the
  // pool degrades to the serial path and the ratio reads ~1.0; the solves
  // are bit-identical either way (tests/sparse_paths_test.cpp).
  cs::MatrixCompletionOptions cold_opts;
  cold_opts.warm_start = false;
  cs::MatrixCompletion pooled(cold_opts);
  util::ThreadPool pool;  // hardware-sized
  pooled.set_thread_pool(&pool);
  cs::MatrixCompletion serial(cold_opts);
  util::ThreadPool serial_pool(0);
  serial.set_thread_pool(&serial_pool);

  const double target = quick ? 300.0 : 800.0;
  const auto pooled_run =
      bench::measure_ms([&] { (void)pooled.infer(window); }, target, 50);
  const auto serial_run =
      bench::measure_ms([&] { (void)serial.infer(window); }, target, 50);
  report.add_with_reference("scale_als_infer_cold", pooled_run.wall_ms,
                            pooled_run.iterations, 1e3 / pooled_run.wall_ms,
                            serial_run.wall_ms, serial_run.iterations);
  std::cout << "1000-cell cold ALS infer: pooled(" << pool.worker_count() + 1
            << " lanes) " << format_double(pooled_run.wall_ms, 2)
            << " ms, serial " << format_double(serial_run.wall_ms, 2)
            << " ms\n";

  // Warm-started per-cycle resume over an evolving window (~100 reveals =
  // one sensing cycle's worth of new observations at 10% density).
  const auto windows = make_window_sequence(task, quick ? 3 : 6, 100);
  const double cycles = static_cast<double>(windows.size());
  const cs::MatrixCompletion warm;  // warm-start on by default
  const auto warm_run = bench::measure_ms(
      [&] {
        for (const auto& w : windows) (void)warm.infer(w);
      },
      target, 50);
  const double warm_ms = warm_run.wall_ms / cycles;
  report.add("scale_als_infer_warm_cycle", warm_ms,
             warm_run.iterations * cycles, 1e3 / warm_ms);
  std::cout << "1000-cell warm ALS infer per cycle: "
            << format_double(warm_ms, 2) << " ms\n";
}

void bench_committee(const mcs::SensingTask& task,
                     bench::JsonReporter& report, bool quick) {
  const auto window = make_scale_window(task);
  cs::MatrixCompletionOptions mc_opts;
  mc_opts.warm_start = false;  // identical work in both modes
  const auto make_members = [&] {
    std::vector<cs::InferenceEnginePtr> members;
    members.push_back(std::make_shared<cs::MeanInference>());
    members.push_back(std::make_shared<cs::TemporalInterpolation>());
    members.push_back(std::make_shared<cs::KnnInference>(task.coords()));
    members.push_back(std::make_shared<cs::MatrixCompletion>(mc_opts));
    return members;
  };

  cs::InferenceCommittee serial(make_members());
  util::ThreadPool serial_pool(0);
  serial.set_thread_pool(&serial_pool);
  cs::InferenceCommittee pooled(make_members());
  util::ThreadPool pool;  // hardware-sized
  pooled.set_thread_pool(&pool);

  const double target = quick ? 300.0 : 800.0;
  const auto pooled_run =
      bench::measure_ms([&] { (void)pooled.infer_all(window); }, target, 20);
  const auto serial_run =
      bench::measure_ms([&] { (void)serial.infer_all(window); }, target, 20);
  report.add_with_reference("scale_committee_infer_all", pooled_run.wall_ms,
                            pooled_run.iterations, 1e3 / pooled_run.wall_ms,
                            serial_run.wall_ms, serial_run.iterations);
  std::cout << "1000-cell committee infer_all: pooled "
            << format_double(pooled_run.wall_ms, 2) << " ms, serial "
            << format_double(serial_run.wall_ms, 2) << " ms\n";
}

void bench_gate(const mcs::SensingTask& task, bench::JsonReporter& report,
                bool quick) {
  const auto window = make_scale_window(task);
  const mcs::LooBayesianGate gate(0.5, 0.9);

  // Pooled vs serial LOO pass. Both engines are warm (the fit caches after
  // the first call), so the measurement reads the gate's per-decision cost
  // — the independent held-out solves, which fan out over the pool like the
  // ALS half-sweeps. On single-core hardware the ratio reads ~1.0; the
  // decisions are bit-identical either way (checked below and in
  // tests/sparse_paths_test.cpp).
  cs::MatrixCompletion pooled_engine;
  util::ThreadPool pool;  // hardware-sized
  pooled_engine.set_thread_pool(&pool);
  cs::MatrixCompletion serial_engine;
  util::ThreadPool serial_pool(0);
  serial_engine.set_thread_pool(&serial_pool);

  const Matrix inferred = pooled_engine.infer(window);
  (void)serial_engine.infer(window);
  const mcs::QualityContext pooled_ctx{task,     window, kWindowCycles - 1,
                                       kWindowCycles - 1, &inferred,
                                       pooled_engine};
  const mcs::QualityContext serial_ctx{task,     window, kWindowCycles - 1,
                                       kWindowCycles - 1, &inferred,
                                       serial_engine};
  if (gate.probability(pooled_ctx) != gate.probability(serial_ctx)) {
    std::cerr << "FAIL: pooled LOO gate decision diverged from serial\n";
    std::exit(1);
  }

  const double target = quick ? 150.0 : 400.0;
  const auto pooled_run = bench::measure_ms(
      [&] { (void)gate.probability(pooled_ctx); }, target, 500);
  const auto serial_run = bench::measure_ms(
      [&] { (void)gate.probability(serial_ctx); }, target, 500);
  report.add_with_reference("scale_quality_gate_decision",
                            pooled_run.wall_ms, pooled_run.iterations,
                            1e3 / pooled_run.wall_ms, serial_run.wall_ms,
                            serial_run.iterations);
  std::cout << "1000-cell LOO gate decision: pooled("
            << pool.worker_count() + 1 << " lanes) "
            << format_double(pooled_run.wall_ms, 3) << " ms, serial "
            << format_double(serial_run.wall_ms, 3) << " ms\n";
}

void bench_environment(const mcs::SensingTask& task,
                       bench::JsonReporter& report, bool quick) {
  auto test_task = std::make_shared<const mcs::SensingTask>(
      task.slice_cycles(kWindowCycles, task.num_cycles()));
  mcs::EnvOptions options;
  options.inference_window = kWindowCycles;
  options.min_observations = 4;
  options.max_selections_per_cycle = 100;  // bound a never-satisfied cycle
  options.warm_start =
      task.slice_cycles(0, kWindowCycles).ground_truth();
  auto env = mcs::SparseMcsEnvironment(
      test_task, std::make_shared<cs::MatrixCompletion>(),
      std::make_shared<mcs::LooBayesianGate>(0.5, 0.9), options);
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
      quick ? 300.0 : 800.0, 50);
  report.add("scale_environment_cycle", cycle.wall_ms, cycle.iterations,
             1e3 / cycle.wall_ms);
  std::cout << "1000-cell environment sensing cycle: "
            << format_double(cycle.wall_ms, 2) << " ms ("
            << format_double(1e3 / cycle.wall_ms, 1) << " cycles/s)\n";
}

void bench_selection(const mcs::SensingTask& task,
                     bench::JsonReporter& report, bool quick) {
  // Pure selection micro-op, mid-cycle (100 of 1000 cells already sensed):
  // drawing one allowed cell from the environment's incremental unsensed
  // set vs the seed behaviour of rebuilding the 0/1 action mask from the
  // selection matrix and materialising an allowed-cell list per pick. The
  // fast path is O(1) per pick, so the ratio grows with the cell count.
  auto test_task = std::make_shared<const mcs::SensingTask>(
      task.slice_cycles(kWindowCycles, task.num_cycles()));
  mcs::EnvOptions options;
  options.inference_window = kWindowCycles;
  options.min_observations = 200;  // keep inference/gate out of the setup
  options.warm_start = task.slice_cycles(0, kWindowCycles).ground_truth();
  auto env = mcs::SparseMcsEnvironment(
      test_task, std::make_shared<cs::MatrixCompletion>(),
      std::make_shared<mcs::LooBayesianGate>(0.5, 0.9), options);
  Rng setup(11);
  for (int k = 0; k < 100; ++k) {
    const auto& allowed = env.unsensed_cells();
    (void)env.step(allowed[setup.uniform_index(allowed.size())]);
  }

  constexpr int kPicks = 1024;  // batch: one pick is ns-scale
  const std::size_t cells = env.num_cells();
  const std::size_t cycle = env.current_cycle();
  std::size_t sink = 0;
  Rng rng(13);
  const double target = quick ? 100.0 : 250.0;
  const auto fast_run = bench::measure_ms(
      [&] {
        for (int k = 0; k < kPicks; ++k) {
          const auto& allowed = env.unsensed_cells();
          sink += allowed[rng.uniform_index(allowed.size())];
        }
      },
      target, 100000);
  const auto naive_run = bench::measure_ms(
      [&] {
        for (int k = 0; k < kPicks; ++k) {
          std::vector<std::uint8_t> mask(cells, 0);
          for (std::size_t cell = 0; cell < cells; ++cell)
            if (!env.selections().selected(cell, cycle)) mask[cell] = 1;
          std::vector<std::size_t> allowed;
          for (std::size_t a = 0; a < cells; ++a)
            if (mask[a]) allowed.push_back(a);
          sink += allowed[rng.uniform_index(allowed.size())];
        }
      },
      target, 100000);
  const double fast_ms = fast_run.wall_ms / kPicks;
  const double naive_ms = naive_run.wall_ms / kPicks;
  report.add_with_reference("scale_selection_pick", fast_ms,
                            static_cast<double>(fast_run.iterations) * kPicks,
                            1e3 / fast_ms, naive_ms,
                            static_cast<double>(naive_run.iterations) *
                                kPicks);
  std::cout << "1000-cell selection pick: incremental "
            << format_double(fast_ms * 1e6, 0) << " ns, rebuild "
            << format_double(naive_ms * 1e6, 0) << " ns (sink " << sink % 10
            << ")\n";
}

/// A trainer on `Net` (rl::DrqnQNetwork, or bench::PreRefactorDrqn for the
/// floor) at the paper's DRQN architecture (k = 2, 64 LSTM units, batch
/// 32) over a 256-transition pool.
template <typename Net>
rl::DqnTrainer make_scale_trainer(std::size_t cells) {
  Rng net_rng(2);
  rl::DqnOptions options;
  options.batch_size = 32;
  options.min_replay = 32;
  rl::DqnTrainer trainer(std::make_unique<Net>(cells, 2, 64, net_rng),
                         options, 7);
  Rng fill(3);
  for (int i = 0; i < 256; ++i) {
    rl::Experience e;
    e.state.assign(2 * cells, 0.0);
    e.state[fill.uniform_index(2 * cells)] = 1.0;
    e.action = fill.uniform_index(cells);
    e.reward = fill.uniform(-1.0, 56.0);
    e.next_state.assign(2 * cells, 0.0);
    e.next_mask.assign(cells, 1);
    trainer.observe(std::move(e));
  }
  return trainer;
}

/// The DRQN train step at the 1000-cell deployment scale: one batched
/// minibatch update vs the retained per-sample reference on the
/// pre-refactor DRQN (pre_refactor_drqn.h). At this width the floor
/// materialises a ~2 MB Wxᵀ per sample per step, so the batched engine's
/// advantage grows with the cell count.
void bench_train_step(std::size_t cells, bench::JsonReporter& report,
                      bool quick) {
  // Parameter self-check before timing anything (pre_refactor_drqn.h).
  {
    rl::DqnTrainer batched = make_scale_trainer<rl::DrqnQNetwork>(cells);
    rl::DqnTrainer floor_trainer =
        make_scale_trainer<bench::PreRefactorDrqn>(cells);
    bench::check_floor_parity(batched, floor_trainer, 256);
  }

  const double target = quick ? 200.0 : 600.0;
  rl::DqnTrainer batched = make_scale_trainer<rl::DrqnQNetwork>(cells);
  const auto run = bench::measure_ms([&] { (void)batched.train_step(); },
                                     target, 500);
  rl::DqnTrainer reference =
      make_scale_trainer<bench::PreRefactorDrqn>(cells);
  const auto ref_run = bench::measure_ms(
      [&] { (void)reference.train_step_reference(); }, target, 500);
  report.add_with_reference("scale_train_step_1000cell", run.wall_ms,
                            run.iterations, 1e3 / run.wall_ms,
                            ref_run.wall_ms, ref_run.iterations);
  std::cout << "1000-cell DRQN train step: batched "
            << format_double(run.wall_ms, 2) << " ms, per-sample reference "
            << format_double(ref_run.wall_ms, 2) << " ms, speedup "
            << format_double(ref_run.wall_ms / run.wall_ms, 2) << "x\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const std::string backend = bench::select_backend(argc, argv);
  const std::string json =
      bench::json_path(argc, argv, "BENCH_scale_1000cell.json");
  bench::JsonReporter report("scale_1000cell", quick);
  report.set_backend(backend);
  report.set_hardware_concurrency(std::thread::hardware_concurrency());
  Stopwatch total;

  std::cout << "generating 1000-cell city-scale task (25 x 40 grid)...\n";
  Stopwatch gen_watch;
  const auto task = data::make_city_scale_task(25, 40, quick ? 72 : 96);
  const double gen_ms = gen_watch.elapsed_ms();
  report.add("city_scale_generation", gen_ms, 1, 1e3 / gen_ms);
  std::cout << "  " << task.num_cells() << " cells x " << task.num_cycles()
            << " cycles in " << format_double(gen_ms / 1e3, 1) << " s\n";

  bench_completion(task, report, quick);
  bench_committee(task, report, quick);
  bench_gate(task, report, quick);
  bench_selection(task, report, quick);
  bench_environment(task, report, quick);
  bench_train_step(task.num_cells(), report, quick);

  std::cout << "total bench time: "
            << format_double(total.elapsed_seconds(), 1) << " s\n";
  return bench::finish_report(report, json, total);
}
