// Micro benchmarks for the computation-time report of Sec. 5.4: per-component
// throughput of the pieces a deployment exercises on every step — the matmul
// kernel, data inference (cold and warm-started ALS), the pooled committee,
// LOO quality assessment, environment steps, DRQN forward passes and gradient
// steps, dataset generation.
//
// The optimised hot paths are measured against the retained naive reference
// implementations, and `--json [path]` writes the BENCH_micro.json perf
// baseline that later PRs are compared against.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "linalg/sparse_matrix.h"
#include "cs/committee.h"
#include "cs/knn_inference.h"
#include "cs/mean_inference.h"
#include "cs/temporal_inference.h"
#include "mcs/environment.h"
#include "nn/lstm.h"
#include "rl/dqn_trainer.h"
#include "rl/drqn_qnetwork.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace drcell;

// Process-wide allocation counter backing the no-allocation dispatch pin:
// ThreadPool::parallel_for takes callables as non-owning FunctionRefs, so a
// steady-state dispatch must perform ZERO heap allocations (the old
// std::function signature copied the target per call). Only the unaligned
// new/delete pair is overridden — over-aligned allocations keep the library
// defaults, a consistent pairing.
static std::atomic<std::size_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

/// A 57-cell window shaped like the Sensor-Scope deployment: 48 cycles,
/// the first 24 dense (warm start), the rest ~25% observed.
cs::PartialMatrix make_window() {
  const auto dataset = data::make_sensorscope_like(2018);
  const auto& task = dataset.temperature;
  cs::PartialMatrix window(task.num_cells(), 48);
  Rng rng(3);
  for (std::size_t c = 0; c < 48; ++c)
    for (std::size_t cell = 0; cell < task.num_cells(); ++cell)
      if (c < 24 || rng.bernoulli(0.25))
        window.set(cell, c, task.truth(cell, c));
  return window;
}

/// Successive sensing-cycle windows: each reveals ~`reveals` more entries of
/// the sparse block, the way a campaign's window evolves between infer calls.
std::vector<cs::PartialMatrix> make_window_sequence(std::size_t steps,
                                                    std::size_t reveals) {
  const auto dataset = data::make_sensorscope_like(2018);
  const auto& task = dataset.temperature;
  std::vector<cs::PartialMatrix> windows;
  cs::PartialMatrix window = make_window();
  Rng rng(71);
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t k = 0; k < reveals; ++k) {
      const std::size_t cell = rng.uniform_index(task.num_cells());
      const std::size_t cycle = 24 + rng.uniform_index(24);
      if (!window.observed(cell, cycle))
        window.set(cell, cycle, task.truth(cell, cycle));
    }
    windows.push_back(window);
  }
  return windows;
}

/// 1000-cell x 48-cycle window at ~10% density — the scale-target shape the
/// sparse observation paths are gated on (values are arbitrary; only the
/// observation pattern matters for these paths).
cs::PartialMatrix make_scale_sparse_window() {
  cs::PartialMatrix window(1000, 48);
  Rng rng(2024);
  for (std::size_t r = 0; r < 1000; ++r)
    for (std::size_t c = 0; c < 48; ++c)
      if (rng.bernoulli(0.10)) window.set(r, c, rng.uniform(-5.0, 35.0));
  return window;
}

/// The observation paths a completion fit runs every sensing step —
/// fingerprint, observed mean, observed RMSE, observation-list iteration and
/// per-row/col counts — measured on the 1000 x 48 scale window against the
/// seed's dense rows x cols scans. All must scale with observed_count, not
/// rows x cols; the combined op carries the >=5x perf gate.
void bench_sparse_observation_paths(bench::JsonReporter& report, bool quick) {
  cs::PartialMatrix window = make_scale_sparse_window();
  Rng rng(9);
  const std::size_t rank = 5;
  const Matrix row_factors = random_normal_matrix(window.rows(), rank, rng);
  const Matrix col_factors = random_normal_matrix(window.cols(), rank, rng);
  const double mu = window.observed_mean();
  const double target = quick ? 120.0 : 350.0;

  double toggle = 1.0;  // alternating write: invalidates the cached
                        // fingerprint so each call pays the full recompute
  double sink = 0.0;    // defeats dead-code elimination

  const auto fast_fingerprint = [&] {
    window.set(0, 0, toggle = -toggle);
    sink += static_cast<double>(window.fingerprint() & 0xff);
  };
  const auto fast_mean = [&] { sink += window.observed_mean(); };
  const auto fast_rmse = [&] {
    sink += cs::observed_rmse(row_factors, col_factors, mu, window);
  };
  const auto fast_lists = [&] {
    // One full pass over every row and column list plus the O(1) counts —
    // what a completion fit's setup now costs.
    std::size_t acc = 0;
    for (std::size_t r = 0; r < window.rows(); ++r) {
      acc += window.observed_count_in_row(r);
      for (std::size_t c : window.observed_cols_in_row(r)) acc += c;
    }
    for (std::size_t c = 0; c < window.cols(); ++c) {
      acc += window.observed_count_in_col(c);
      for (std::size_t r : window.observed_rows_in_col(c)) acc += r;
    }
    sink += static_cast<double>(acc & 0xff);
  };
  const auto fast_all = [&] {
    fast_fingerprint();
    fast_mean();
    fast_rmse();
    fast_lists();
  };

  // Seed behaviour: every path scans the dense rows x cols grid.
  const auto dense_fingerprint = [&] {
    window.set(0, 0, toggle = -toggle);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    };
    mix(window.rows());
    mix(window.cols());
    mix(window.observed_count());
    for (std::size_t r = 0; r < window.rows(); ++r)
      for (std::size_t c = 0; c < window.cols(); ++c)
        if (window.observed(r, c)) {
          mix(r * window.cols() + c);
          mix(std::bit_cast<std::uint64_t>(window.value(r, c)));
        }
    sink += static_cast<double>(h & 0xff);
  };
  const auto dense_mean = [&] {
    double s = 0.0;
    std::size_t count = 0;
    for (std::size_t r = 0; r < window.rows(); ++r)
      for (std::size_t c = 0; c < window.cols(); ++c)
        if (window.observed(r, c)) {
          s += window.value(r, c);
          ++count;
        }
    sink += count ? s / static_cast<double>(count) : 0.0;
  };
  const auto dense_rmse = [&] {
    double sq = 0.0;
    std::size_t count = 0;
    for (std::size_t r = 0; r < window.rows(); ++r)
      for (std::size_t c = 0; c < window.cols(); ++c) {
        if (!window.observed(r, c)) continue;
        double pred = mu;
        for (std::size_t k = 0; k < rank; ++k)
          pred += row_factors(r, k) * col_factors(c, k);
        const double d = pred - window.value(r, c);
        sq += d * d;
        ++count;
      }
    sink += count ? std::sqrt(sq / static_cast<double>(count)) : 0.0;
  };
  const auto dense_lists = [&] {
    // Seed observed_cols_in_row/observed_rows_in_col: a fresh vector per
    // query, each filled by scanning the full dense extent.
    std::size_t acc = 0;
    for (std::size_t r = 0; r < window.rows(); ++r) {
      std::vector<std::size_t> cols;
      for (std::size_t c = 0; c < window.cols(); ++c)
        if (window.observed(r, c)) cols.push_back(c);
      acc += cols.size();
      for (std::size_t c : cols) acc += c;
    }
    for (std::size_t c = 0; c < window.cols(); ++c) {
      std::vector<std::size_t> rows;
      for (std::size_t r = 0; r < window.rows(); ++r)
        if (window.observed(r, c)) rows.push_back(r);
      acc += rows.size();
      for (std::size_t r : rows) acc += r;
    }
    sink += static_cast<double>(acc & 0xff);
  };
  const auto dense_all = [&] {
    dense_fingerprint();
    dense_mean();
    dense_rmse();
    dense_lists();
  };

  const auto add_pair = [&](const std::string& op, auto&& fast,
                            auto&& dense) {
    const auto f = bench::measure_ms(fast, target, 20000);
    const auto d = bench::measure_ms(dense, target, 20000);
    report.add_with_reference(op, f.wall_ms, f.iterations, 1e3 / f.wall_ms,
                              d.wall_ms, d.iterations);
    std::cout << op << ": sparse " << format_double(f.wall_ms * 1e3, 1)
              << " us, dense-scan " << format_double(d.wall_ms * 1e3, 1)
              << " us, speedup " << format_double(d.wall_ms / f.wall_ms, 2)
              << "x\n";
  };
  add_pair("sparse_window_fingerprint_1000x48", fast_fingerprint,
           dense_fingerprint);
  add_pair("sparse_observed_mean_1000x48", fast_mean, dense_mean);
  add_pair("sparse_observed_rmse_1000x48", fast_rmse, dense_rmse);
  add_pair("sparse_observation_lists_1000x48", fast_lists, dense_lists);
  add_pair("sparse_observation_paths_1000x48", fast_all, dense_all);
  if (sink == 42.123456789) std::cout << "";  // keep `sink` observable
}

void bench_matmul(bench::JsonReporter& report, bool quick) {
  // Same 320^3 problem in both modes (the blocked-vs-naive ratio depends on
  // the working set exceeding cache); quick only trims the timing budget.
  const std::size_t n = 320;
  Rng rng(11);
  const Matrix a = random_normal_matrix(n, n, rng);
  const Matrix b = random_normal_matrix(n, n, rng);
  Matrix out;
  const auto fast = bench::measure_ms(
      [&] { a.matmul_into(b, out); }, quick ? 120.0 : 400.0);
  const auto naive = bench::measure_ms([&] { (void)a.matmul_naive(b); },
                                       quick ? 120.0 : 400.0, 50);
  report.add_with_reference("matmul_" + std::to_string(n), fast.wall_ms,
                            fast.iterations, 1e3 / fast.wall_ms,
                            naive.wall_ms, naive.iterations);
  // The seed's actual kernel (unblocked ikj), for honest context on what
  // the blocked kernel gained over the previously shipped code — the gated
  // speedup above is against the textbook-naive floor.
  const auto unblocked = bench::measure_ms(
      [&] { (void)a.matmul_unblocked(b); }, quick ? 120.0 : 400.0, 50);
  report.add("matmul_" + std::to_string(n) + "_unblocked_seed",
             unblocked.wall_ms, unblocked.iterations,
             1e3 / unblocked.wall_ms);
  std::cout << "matmul " << n << "^3: blocked "
            << format_double(fast.wall_ms, 3) << " ms, unblocked(seed) "
            << format_double(unblocked.wall_ms, 3) << " ms, naive "
            << format_double(naive.wall_ms, 3) << " ms, speedup vs naive "
            << format_double(naive.wall_ms / fast.wall_ms, 2) << "x\n";

  // The DRQN head shape (batch x features times features x cells) for
  // context on the sizes the trainer actually runs.
  const Matrix nn_a = random_normal_matrix(32, 114, rng);
  const Matrix nn_b = random_normal_matrix(114, 256, rng);
  Matrix nn_out;
  const auto nn = bench::measure_ms(
      [&] { nn_a.matmul_into(nn_b, nn_out); }, 100.0, 20000);
  report.add("matmul_drqn_head", nn.wall_ms, nn.iterations,
             1e3 / nn.wall_ms);
}

void bench_sparse_gather(bench::JsonReporter& report, bool quick) {
  // The metro-tier LSTM input GEMM shape: a [32 x 10000] selection-union
  // step matrix (~300 ones per row, the per-cycle selection cap) times the
  // [10000 x 256] input weight block. The gather touches the stored entries
  // only; the dense kernel walks all 320k per-row elements. The two are
  // bit-identical by contract (linalg/sparse_matrix.h) — asserted here on
  // the real shape before timing — and the pair carries a hard >=5x
  // self-gate plus the CI committed-baseline gate.
  const std::size_t batch = 32, cells = 10000, width = 256, ones = 300;
  Rng rng(13);
  Matrix dense(batch, cells);
  SparseRowMatrix sparse(batch, cells);
  std::vector<std::uint32_t> row_ones;
  for (std::size_t b = 0; b < batch; ++b) {
    row_ones.clear();
    for (std::size_t i = 0; i < ones; ++i)
      row_ones.push_back(static_cast<std::uint32_t>(rng.uniform_index(cells)));
    std::sort(row_ones.begin(), row_ones.end());
    row_ones.erase(std::unique(row_ones.begin(), row_ones.end()),
                   row_ones.end());
    for (const std::uint32_t c : row_ones) {
      dense(b, c) = 1.0;
      sparse.append(b, c, 1.0);
    }
  }
  const Matrix w = random_normal_matrix(cells, width, rng);

  Matrix out_sparse, out_dense;
  sparse.matmul_into(w, out_sparse);
  dense.matmul_into(w, out_dense);
  // Bit-identity under exact-contract backends; tolerance backends run the
  // exact gather against their own dense GEMM, so the relaxed bound applies.
  const bool gather_ok =
      BackendRegistry::active().exact_contract()
          ? out_sparse == out_dense
          : (out_sparse - out_dense).max_abs() <=
                BackendRegistry::active().tolerance_vs_native();
  if (!gather_ok) {
    std::cerr << "FAIL: sparse gather GEMM diverged from the dense kernel "
                 "(bit-identity contract broken)\n";
    std::exit(1);
  }

  const double target = quick ? 120.0 : 400.0;
  const auto gather = bench::measure_ms(
      [&] { sparse.matmul_into(w, out_sparse); }, target, 20000);
  const auto full = bench::measure_ms(
      [&] { dense.matmul_into(w, out_dense); }, target, 2000);
  report.add_with_reference("sparse_gather_gemm_32x10000", gather.wall_ms,
                            gather.iterations, 1e3 / gather.wall_ms,
                            full.wall_ms, full.iterations);
  std::cout << "sparse gather GEMM [32x10000]x[10000x256]: gather "
            << format_double(gather.wall_ms, 3) << " ms, dense "
            << format_double(full.wall_ms, 3) << " ms, speedup "
            << format_double(full.wall_ms / gather.wall_ms, 2) << "x\n";
}

void bench_als(bench::JsonReporter& report, bool quick) {
  // ~14 reveals = one sensing cycle's worth of new observations at the
  // paper's 25% density on 57 cells.
  const auto windows = make_window_sequence(quick ? 4 : 8, 14);
  const double cycles = static_cast<double>(windows.size());

  // The reference is the seed behaviour: cold start from random noise every
  // call, no Frobenius early exit (only the original max-change stop).
  cs::MatrixCompletionOptions cold_opts;
  cold_opts.warm_start = false;
  cold_opts.frobenius_tol = 0.0;
  const cs::MatrixCompletion cold(cold_opts);
  const cs::MatrixCompletion warm;  // warm-start on by default

  // One f() = one pass over the window sequence = `cycles` sensing cycles.
  const auto warm_run = bench::measure_ms(
      [&] {
        for (const auto& w : windows) (void)warm.infer(w);
      },
      quick ? 200.0 : 600.0, 50);
  const auto cold_run = bench::measure_ms(
      [&] {
        for (const auto& w : windows) (void)cold.infer(w);
      },
      quick ? 200.0 : 600.0, 50);

  const double warm_ms = warm_run.wall_ms / cycles;   // per sensing cycle
  const double cold_ms = cold_run.wall_ms / cycles;
  report.add_with_reference("als_completion_cycle", warm_ms,
                            warm_run.iterations * cycles, 1e3 / warm_ms,
                            cold_ms, cold_run.iterations * cycles);
  std::cout << "ALS completion per cycle: warm "
            << format_double(warm_ms, 3) << " ms, cold "
            << format_double(cold_ms, 3) << " ms, speedup "
            << format_double(cold_ms / warm_ms, 2) << "x\n";
}

void bench_committee(bench::JsonReporter& report, bool quick) {
  const auto dataset = data::make_sensorscope_like(2018);
  const auto window = make_window();
  cs::MatrixCompletionOptions mc_opts;
  mc_opts.warm_start = false;  // identical work in both modes
  const auto make_members = [&] {
    std::vector<cs::InferenceEnginePtr> members;
    members.push_back(std::make_shared<cs::MeanInference>());
    members.push_back(std::make_shared<cs::TemporalInterpolation>());
    members.push_back(
        std::make_shared<cs::KnnInference>(dataset.temperature.coords()));
    members.push_back(std::make_shared<cs::MatrixCompletion>(mc_opts));
    return members;
  };

  cs::InferenceCommittee serial(make_members());
  util::ThreadPool serial_pool(0);
  serial.set_thread_pool(&serial_pool);
  cs::InferenceCommittee pooled(make_members());
  util::ThreadPool pool;  // hardware-sized
  pooled.set_thread_pool(&pool);

  const double target = quick ? 150.0 : 400.0;
  const auto pooled_run =
      bench::measure_ms([&] { (void)pooled.infer_all(window); }, target, 100);
  const auto serial_run =
      bench::measure_ms([&] { (void)serial.infer_all(window); }, target, 100);
  report.add_with_reference("committee_infer_all", pooled_run.wall_ms,
                            pooled_run.iterations, 1e3 / pooled_run.wall_ms,
                            serial_run.wall_ms, serial_run.iterations);
  std::cout << "committee infer_all: pooled("
            << pool.worker_count() + 1 << " lanes) "
            << format_double(pooled_run.wall_ms, 3) << " ms, serial "
            << format_double(serial_run.wall_ms, 3) << " ms\n";
}

void bench_inference_details(bench::JsonReporter& report, bool quick) {
  const auto dataset = data::make_sensorscope_like(2018);
  const auto& task = dataset.temperature;
  const auto window = make_window();
  const cs::MatrixCompletion engine;
  const double target = quick ? 100.0 : 300.0;

  const auto loo = bench::measure_ms(
      [&] { (void)engine.loo_column_predictions(window, 47); }, target, 200);
  report.add("loo_column_predictions", loo.wall_ms, loo.iterations,
             1e3 / loo.wall_ms);

  const cs::KnnInference knn(task.coords());
  const auto knn_run =
      bench::measure_ms([&] { (void)knn.infer(window); }, target, 200);
  report.add("knn_infer", knn_run.wall_ms, knn_run.iterations,
             1e3 / knn_run.wall_ms);

  const mcs::LooBayesianGate gate(0.3, 0.9);
  const Matrix inferred = engine.infer(window);
  const mcs::QualityContext ctx{task, window, 47, 47, &inferred, engine};
  const auto gate_run =
      bench::measure_ms([&] { (void)gate.probability(ctx); }, target, 500);
  report.add("quality_gate_decision", gate_run.wall_ms, gate_run.iterations,
             1e3 / gate_run.wall_ms);
}

void bench_environment(bench::JsonReporter& report, bool quick) {
  const auto dataset = data::make_sensorscope_like(2018);
  auto task = std::make_shared<const mcs::SensingTask>(
      dataset.temperature.slice_cycles(48, 336));
  mcs::EnvOptions options;
  options.inference_window = 48;
  options.min_observations = 4;
  options.warm_start = dataset.temperature.slice_cycles(0, 48).ground_truth();
  auto env = mcs::SparseMcsEnvironment(
      task, std::make_shared<cs::MatrixCompletion>(),
      std::make_shared<mcs::LooBayesianGate>(0.3, 0.9), options);
  Rng rng(5);
  // Reset once up front and cap iterations below the episode length so no
  // env.reset() (window re-inference, state rebuild) lands inside the timed
  // region — this measures the per-step cost only, like the old harness's
  // PauseTiming around resets did.
  env.reset();
  const auto step = bench::measure_ms(
      [&] {
        if (env.episode_done()) return;  // episode-length cap safety net
        const auto& mask = env.action_mask();
        std::vector<std::size_t> allowed;
        for (std::size_t a = 0; a < mask.size(); ++a)
          if (mask[a]) allowed.push_back(a);
        env.step(allowed[rng.uniform_index(allowed.size())]);
      },
      quick ? 150.0 : 400.0, 200);
  report.add("environment_step", step.wall_ms, step.iterations,
             1e3 / step.wall_ms);
}

/// The fused fastmath LSTM gate pass at the paper-scale step shape (batch
/// 32, 64 hidden units → one [32 x 256] pre-activation block) against the
/// retained std::-based scalar gate pass. The forward pair carries the hard
/// >=3x self-gate (the four transcendental gate activations are exactly
/// what fastmath vectorises); the mirrored backward — pure elementwise
/// arithmetic on both sides — is reported as ungated context.
void bench_lstm_gate(bench::JsonReporter& report, bool quick) {
  const std::size_t batch = 32, hidden = 64;
  Rng rng(21);
  Matrix z = random_normal_matrix(batch, 4 * hidden, rng);
  for (double& v : z.data()) v *= 2.0;  // spread across the nonlinear range
  const Matrix c_prev = random_normal_matrix(batch, hidden, rng);
  Matrix gates(batch, 4 * hidden), c(batch, hidden), tanh_c(batch, hidden),
      h(batch, hidden);

  const double target = quick ? 100.0 : 300.0;
  const auto fwd = bench::measure_ms(
      [&] { nn::lstm_gate_forward(z, &c_prev, gates, c, tanh_c, h); }, target,
      200000);

  // Numeric-divergence self-check before timing: the fused pass must track
  // the std:: reference within the fastmath tolerance on every tensor.
  {
    Matrix rg(batch, 4 * hidden), rc(batch, hidden), rt(batch, hidden),
        rh(batch, hidden);
    nn::lstm_gate_forward(z, &c_prev, gates, c, tanh_c, h);
    nn::lstm_gate_forward_reference(z, &c_prev, rg, rc, rt, rh);
    if ((gates - rg).max_abs() > 1e-11 || (c - rc).max_abs() > 1e-11 ||
        (tanh_c - rt).max_abs() > 1e-11 || (h - rh).max_abs() > 1e-11) {
      std::cerr << "FAIL: fused LSTM gate pass diverged from the std:: "
                   "reference beyond the fastmath tolerance\n";
      std::exit(1);
    }
  }
  const auto fwd_ref = bench::measure_ms(
      [&] {
        nn::lstm_gate_forward_reference(z, &c_prev, gates, c, tanh_c, h);
      },
      target, 200000);
  report.add_with_reference("lstm_gate_pass", fwd.wall_ms, fwd.iterations,
                            1e3 / fwd.wall_ms, fwd_ref.wall_ms,
                            fwd_ref.iterations);
  std::cout << "lstm gate pass (32x256): fused "
            << format_double(fwd.wall_ms * 1e3, 1) << " us, std "
            << format_double(fwd_ref.wall_ms * 1e3, 1) << " us, speedup "
            << format_double(fwd_ref.wall_ms / fwd.wall_ms, 2) << "x\n";

  // Mirrored backward pass over the cached forward tensors.
  nn::lstm_gate_forward(z, &c_prev, gates, c, tanh_c, h);
  Rng grad_rng(22);
  const Matrix dh = random_normal_matrix(batch, hidden, grad_rng);
  const Matrix dc_next = random_normal_matrix(batch, hidden, grad_rng);
  Matrix dz(batch, 4 * hidden), dc_prev(batch, hidden);
  const auto bwd = bench::measure_ms(
      [&] {
        nn::lstm_gate_backward(gates, tanh_c, &c_prev, dh, dc_next, dz,
                               dc_prev);
      },
      target, 200000);
  const auto bwd_ref = bench::measure_ms(
      [&] {
        nn::lstm_gate_backward_reference(gates, tanh_c, &c_prev, dh, dc_next,
                                         dz, dc_prev);
      },
      target, 200000);
  report.add_with_reference("lstm_gate_backward_pass", bwd.wall_ms,
                            bwd.iterations, 1e3 / bwd.wall_ms,
                            bwd_ref.wall_ms, bwd_ref.iterations);
}

/// Paper-scale DRQN trainer (57 cells, k = 2, 64 LSTM units, batch 32 —
/// the Sensor-Scope configuration of Sec. 5.3) over a 512-transition pool.
rl::DqnTrainer make_paper_scale_trainer(std::uint64_t net_seed) {
  Rng net_rng(net_seed);
  rl::DqnOptions options;
  options.batch_size = 32;
  options.min_replay = 32;
  rl::DqnTrainer trainer(
      std::make_unique<rl::DrqnQNetwork>(57, 2, 64, net_rng), options, 7);
  Rng fill(3);
  for (int i = 0; i < 512; ++i) {
    rl::Experience e;
    e.state.assign(114, 0.0);
    e.state[fill.uniform_index(114)] = 1.0;
    e.action = fill.uniform_index(57);
    e.reward = fill.uniform(-1.0, 56.0);
    e.next_state.assign(114, 0.0);
    e.next_mask.assign(57, 1);
    trainer.observe(std::move(e));
  }
  return trainer;
}

void bench_rl(bench::JsonReporter& report, bool quick) {
  Rng rng(1);
  rl::DrqnQNetwork net(57, 2, 64, rng);
  std::vector<Matrix> seq(2, Matrix(1, 57));
  seq[0](0, 3) = 1.0;
  seq[1](0, 11) = 1.0;
  const auto fwd = bench::measure_ms([&] { (void)net.forward(seq); },
                                     quick ? 100.0 : 250.0, 50000);
  report.add("drqn_forward", fwd.wall_ms, fwd.iterations, 1e3 / fwd.wall_ms);

  // The batched forward at the trainer's minibatch width, for context on
  // how the per-sample cost amortises (reported per 32-sample batch).
  std::vector<Matrix> batch_seq(2, Matrix(32, 57));
  Rng batch_rng(4);
  for (auto& step : batch_seq)
    for (std::size_t b = 0; b < 32; ++b)
      step(b, batch_rng.uniform_index(57)) = 1.0;
  const auto fwd_batch = bench::measure_ms(
      [&] { (void)net.forward_batch(batch_seq); }, quick ? 100.0 : 250.0,
      20000);
  report.add("drqn_forward_batch32", fwd_batch.wall_ms, fwd_batch.iterations,
             1e3 / fwd_batch.wall_ms);

  // Parameter self-check before timing anything, so a perf run can never
  // report a speedup for a path that silently diverged: the production
  // batched engine vs the per-sample reference path, both on the active
  // backend's kernels, after 5 shared minibatch updates. Bit-identical
  // under exact-contract backends; a tolerance backend's per-sample path
  // runs differently shaped GEMMs, so it is held to the documented 1e-8
  // max-abs bound instead (docs/ARCHITECTURE.md).
  {
    rl::DqnTrainer batched = make_paper_scale_trainer(2);
    rl::DqnTrainer reference = make_paper_scale_trainer(2);
    Rng draw(11);
    for (int step = 0; step < 5; ++step) {
      std::vector<std::size_t> indices;
      for (int i = 0; i < 32; ++i) indices.push_back(draw.uniform_index(512));
      (void)batched.train_step_on_indices(indices);
      (void)reference.train_step_reference_on_indices(indices);
    }
    const auto pb = batched.online().parameters();
    const auto pr = reference.online().parameters();
    const bool exact = BackendRegistry::active().exact_contract();
    for (std::size_t i = 0; i < pb.size(); ++i) {
      const bool ok = exact
                          ? pb[i]->value == pr[i]->value
                          : (pb[i]->value - pr[i]->value).max_abs() <= 1e-8;
      if (!ok) {
        std::cerr << "FAIL: batched train step diverged from the per-sample "
                     "reference path (parameter "
                  << i << ")\n";
        std::exit(1);
      }
    }
  }

  // The headline measurement: one batched minibatch update at the
  // paper-scale DRQN config. The batched engine turns 3x32 skinny B=1
  // forwards plus 32 backwards into three [32 x F] GEMM passes and one
  // batched backward — the shape the blocked kernel and the AᵀB/ABᵀ
  // primitives are built for.
  rl::DqnTrainer trainer = make_paper_scale_trainer(2);
  const auto train = bench::measure_ms([&] { (void)trainer.train_step(); },
                                       quick ? 150.0 : 400.0, 5000);
  report.add("dqn_train_step", train.wall_ms, train.iterations,
             1e3 / train.wall_ms);

  // Paired against the retained per-sample reference update. Hard >=3x
  // self-gate below; also gated in CI against the committed baseline ratio.
  rl::DqnTrainer ref_trainer = make_paper_scale_trainer(2);
  const auto train_ref = bench::measure_ms(
      [&] { (void)ref_trainer.train_step_reference(); },
      quick ? 150.0 : 400.0, 5000);
  report.add_with_reference("train_step_batched", train.wall_ms,
                            train.iterations, 1e3 / train.wall_ms,
                            train_ref.wall_ms, train_ref.iterations);
  std::cout << "dqn train step (paper-scale DRQN): batched "
            << format_double(train.wall_ms, 3) << " ms, per-sample reference "
            << format_double(train_ref.wall_ms, 3) << " ms, speedup "
            << format_double(train_ref.wall_ms / train.wall_ms, 2) << "x\n";
}

/// Faithful copy of the pre-chunked ThreadPool dispatch: one index claimed
/// per acquisition of the batch mutex, callables passed as std::function
/// (copied per call site). The baseline half of the
/// `pool_dispatch_fine_grain` pair — the ratio reads what chunked atomic
/// claiming plus FunctionRef buy on ~1µs tasks.
class MutexClaimPool {
 public:
  explicit MutexClaimPool(std::size_t workers) {
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }
  ~MutexClaimPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_ready_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (workers_.empty()) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    Batch batch;
    batch.fn = &fn;
    batch.n = n;
    std::unique_lock<std::mutex> lock(mutex_);
    batch_ = &batch;
    work_ready_.notify_all();
    drain_batch(batch, lock);
    batch_done_.wait(lock, [&batch] { return batch.completed == batch.n; });
    batch_ = nullptr;
  }

 private:
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;
    std::size_t completed = 0;
  };
  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_ready_.wait(lock, [this] {
        return stop_ || (batch_ != nullptr && batch_->next < batch_->n);
      });
      if (stop_) return;
      drain_batch(*batch_, lock);
    }
  }
  void drain_batch(Batch& batch, std::unique_lock<std::mutex>& lock) {
    while (batch.next < batch.n) {
      const std::size_t i = batch.next++;
      lock.unlock();
      (*batch.fn)(i);
      lock.lock();
      if (++batch.completed == batch.n) batch_done_.notify_all();
    }
  }
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  Batch* batch_ = nullptr;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Dispatch overhead on fine-grain tasks: 4096 tasks of ~1µs each, the
/// granularity of the ALS chunk loop and the per-row Nyström fan-outs. The
/// pair measures the shipping chunked-atomic dispatch against the retained
/// mutex-per-index claim at the same worker count, self-checks that both
/// produce the identical output, and pins the FunctionRef path to zero heap
/// allocations per steady-state parallel_for.
void bench_pool_dispatch(bench::JsonReporter& report, bool quick) {
  const std::size_t workers = util::ThreadPool::default_worker_count();
  const std::size_t n = quick ? 1024 : 4096;
  const double target = quick ? 100.0 : 300.0;
  std::vector<double> out(n, 0.0);
  // ~1µs of dependent floating-point work per task: long enough to be a
  // real task, short enough that dispatch overhead dominates a mutex-held
  // claim path.
  const auto task = [&out](std::size_t i) {
    double acc = static_cast<double>(i) * 1e-3 + 1.0;
    for (int k = 0; k < 500; ++k) acc = acc * 1.0000001 + 1e-9;
    out[i] = acc;
  };

  util::ThreadPool pool(workers);
  pool.parallel_for(n, task);
  const std::vector<double> expected = out;

  // No-allocation pin: eight steady-state dispatches must not touch the
  // heap (FunctionRef carries the callable by reference; the chunked drain
  // claims ranges off one atomic).
  const std::size_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 8; ++rep) pool.parallel_for(n, task);
  const std::size_t alloc_delta =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  if (alloc_delta != 0) {
    std::cerr << "FAIL: parallel_for allocated (" << alloc_delta
              << " allocations across 8 dispatches) — the FunctionRef "
                 "dispatch path must be allocation-free\n";
    std::exit(1);
  }

  const auto fast =
      bench::measure_ms([&] { pool.parallel_for(n, task); }, target, 2000);

  MutexClaimPool mutex_pool(workers);
  std::fill(out.begin(), out.end(), 0.0);
  mutex_pool.parallel_for(n, task);
  if (out != expected) {
    std::cerr << "FAIL: mutex-claim reference dispatch diverged from the "
                 "chunked atomic dispatch\n";
    std::exit(1);
  }
  const auto ref = bench::measure_ms(
      [&] { mutex_pool.parallel_for(n, task); }, target, 2000);

  report.add_with_reference("pool_dispatch_fine_grain", fast.wall_ms,
                            fast.iterations, 1e3 / fast.wall_ms, ref.wall_ms,
                            ref.iterations);
  std::cout << "pool dispatch (" << n << " x ~1us tasks, " << workers
            << " workers): chunked atomic "
            << format_double(fast.wall_ms, 3) << " ms, mutex claim "
            << format_double(ref.wall_ms, 3) << " ms, speedup "
            << format_double(ref.wall_ms / fast.wall_ms, 2) << "x\n";
  if (workers < 3)
    std::cout << "pool_dispatch_fine_grain: reported UNGATED at " << workers
              << " workers — without concurrent lanes the mutex claim never "
                 "contends, so the two strategies are indistinguishable; the "
                 ">=2x gate arms at >= 3 workers (4 lanes)\n";
}

void bench_datasets(bench::JsonReporter& report, bool quick) {
  const auto gen = bench::measure_ms(
      [&] { (void)data::make_sensorscope_like(2018); }, quick ? 150.0 : 400.0,
      50);
  report.add("sensorscope_generation", gen.wall_ms, gen.iterations,
             1e3 / gen.wall_ms);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const std::string backend = bench::select_backend(argc, argv);
  bool no_gate = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--no-perf-gate") no_gate = true;
#ifndef NDEBUG
  // Unoptimised builds measure untuned code; the 3x thresholds only mean
  // something with optimisation on.
  no_gate = true;
#endif
  if (backend != "native") {
    // The hard speedup gates compare the active kernels against the naive
    // references — only meaningful for the tuned native backend (under
    // --backend reference the "optimised" ops ARE the references).
    no_gate = true;
    std::cout << "backend " << backend << ": perf gates disabled\n";
  }
  const std::string json = bench::json_path(argc, argv, "BENCH_micro.json");
  bench::JsonReporter report("micro_components", quick);
  report.set_backend(backend);
  report.set_hardware_concurrency(std::thread::hardware_concurrency());
  Stopwatch total;

  bench_pool_dispatch(report, quick);
  bench_matmul(report, quick);
  bench_sparse_gather(report, quick);
  bench_lstm_gate(report, quick);
  bench_sparse_observation_paths(report, quick);
  bench_als(report, quick);
  bench_committee(report, quick);
  bench_inference_details(report, quick);
  bench_environment(report, quick);
  bench_rl(report, quick);
  bench_datasets(report, quick);

  std::cout << "total bench time: "
            << format_double(total.elapsed_seconds(), 1) << " s\n";
  // Write the report before gating so the artifact exists for debugging a
  // perf regression.
  const int exit_code = bench::finish_report(report, json, total);

  // The perf gates: the optimised matmul, the warm-started ALS, the batched
  // train step and the fused LSTM gate pass must stay >= 3x ahead of their
  // retained references, and the sparse observation paths >= 5x ahead of
  // the dense-scan seed path on the 1000 x 48 scale window.
  // --no-perf-gate skips them for runs on contended machines (the CTest
  // registration uses it; the dedicated CI bench step keeps them hard).
  const double matmul_speedup = report.speedup("matmul_320");
  const double als_speedup = report.speedup("als_completion_cycle");
  const double sparse_speedup =
      report.speedup("sparse_observation_paths_1000x48");
  const double train_speedup = report.speedup("train_step_batched");
  const double gate_speedup = report.speedup("lstm_gate_pass");
  const double gather_speedup = report.speedup("sparse_gather_gemm_32x10000");
  if (!no_gate && (matmul_speedup < 3.0 || als_speedup < 3.0 ||
                   sparse_speedup < 5.0 || train_speedup < 3.0 ||
                   gate_speedup < 3.0 || gather_speedup < 5.0)) {
    std::cerr << "PERF REGRESSION: matmul speedup "
              << format_double(matmul_speedup, 2) << "x, ALS speedup "
              << format_double(als_speedup, 2) << "x, batched train step "
              << format_double(train_speedup, 2) << "x, LSTM gate pass "
              << format_double(gate_speedup, 2)
              << "x (all must be >= 3x); sparse observation paths "
              << format_double(sparse_speedup, 2) << "x and sparse gather "
                 "GEMM "
              << format_double(gather_speedup, 2) << "x (must be >= 5x)\n";
    return 1;
  }

  // Dispatch-overhead gate: chunked atomic claiming must hold >= 2x over
  // the mutex-per-index claim on ~1µs tasks. Only armed with enough workers
  // for the mutex path to actually contend (>= 3 workers / 4 lanes); below
  // that bench_pool_dispatch prints the documented UNGATED line instead —
  // on 1-core hardware both strategies run the same serial loop.
  const double dispatch_speedup = report.speedup("pool_dispatch_fine_grain");
  if (!no_gate && util::ThreadPool::default_worker_count() >= 3 &&
      dispatch_speedup < 2.0) {
    std::cerr << "PERF REGRESSION: pool dispatch speedup "
              << format_double(dispatch_speedup, 2)
              << "x vs the mutex-claim reference (must be >= 2x at >= 3 "
                 "workers)\n";
    return 1;
  }
  return exit_code;
}
