// Tests for the O(observed) completion pipeline: PartialMatrix's
// incremental observation lists vs the seed's dense-scan reference,
// consistency under LOO clear-then-restore churn, the cached window
// fingerprint shared across infer + quality gate, ThreadPool-parallel ALS
// bit-identity with the serial path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "cs/matrix_completion.h"
#include "cs/partial_matrix.h"
#include "data/datasets.h"
#include "data/synthetic_field.h"
#include "mcs/quality.h"
#include "mcs/sensing_task.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace drcell {
namespace {

/// Seed-equivalent dense scans, the reference the incremental lists are
/// checked against.
std::vector<std::size_t> dense_rows_in_col(const cs::PartialMatrix& p,
                                           std::size_t c) {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < p.rows(); ++r)
    if (p.observed(r, c)) out.push_back(r);
  return out;
}

std::vector<std::size_t> dense_cols_in_row(const cs::PartialMatrix& p,
                                           std::size_t r) {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < p.cols(); ++c)
    if (p.observed(r, c)) out.push_back(c);
  return out;
}

double dense_mean(const cs::PartialMatrix& p) {
  double s = 0.0;
  std::size_t count = 0;
  for (std::size_t r = 0; r < p.rows(); ++r)
    for (std::size_t c = 0; c < p.cols(); ++c)
      if (p.observed(r, c)) {
        s += p.value(r, c);
        ++count;
      }
  return count ? s / static_cast<double>(count) : 0.0;
}

/// The seed's order-sensitive window hash (dense row-major scan) — the
/// cached fingerprint must reproduce it exactly.
std::uint64_t dense_fingerprint(const cs::PartialMatrix& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  mix(p.rows());
  mix(p.cols());
  mix(p.observed_count());
  for (std::size_t r = 0; r < p.rows(); ++r)
    for (std::size_t c = 0; c < p.cols(); ++c)
      if (p.observed(r, c)) {
        mix(r * p.cols() + c);
        mix(std::bit_cast<std::uint64_t>(p.value(r, c)));
      }
  return h;
}

/// Full consistency check of the incremental state against the dense-scan
/// reference and a from-scratch rebuild.
void expect_matches_dense_reference(const cs::PartialMatrix& p) {
  std::size_t total = 0;
  for (std::size_t r = 0; r < p.rows(); ++r) {
    const auto dense = dense_cols_in_row(p, r);
    EXPECT_EQ(p.observed_cols_in_row(r), dense) << "row " << r;
    EXPECT_EQ(p.observed_count_in_row(r), dense.size()) << "row " << r;
    total += dense.size();
  }
  for (std::size_t c = 0; c < p.cols(); ++c) {
    const auto dense = dense_rows_in_col(p, c);
    EXPECT_EQ(p.observed_rows_in_col(c), dense) << "col " << c;
    EXPECT_EQ(p.observed_count_in_col(c), dense.size()) << "col " << c;
  }
  EXPECT_EQ(p.observed_count(), total);
  EXPECT_EQ(p.observed_mean(), dense_mean(p));  // same summation order
  EXPECT_EQ(p.fingerprint(), dense_fingerprint(p));

  // From-scratch rebuild: an identical matrix built by one set() per
  // observed entry must agree on every query.
  cs::PartialMatrix rebuilt(p.rows(), p.cols());
  for (std::size_t r = 0; r < p.rows(); ++r)
    for (std::size_t c : p.observed_cols_in_row(r))
      rebuilt.set(r, c, p.value(r, c));
  EXPECT_EQ(rebuilt.observed_count(), p.observed_count());
  EXPECT_EQ(rebuilt.observed_mean(), p.observed_mean());
  EXPECT_EQ(rebuilt.fingerprint(), p.fingerprint());
  for (std::size_t r = 0; r < p.rows(); ++r)
    EXPECT_EQ(rebuilt.observed_cols_in_row(r), p.observed_cols_in_row(r));
  for (std::size_t c = 0; c < p.cols(); ++c)
    EXPECT_EQ(rebuilt.observed_rows_in_col(c), p.observed_rows_in_col(c));
}

TEST(PartialMatrixSparse, ListsMatchDenseReferenceOnRandomMasks) {
  Rng rng(101);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t m = 1 + rng.uniform_index(14);
    const std::size_t n = 1 + rng.uniform_index(14);
    const double density = rng.uniform(0.0, 1.0);
    cs::PartialMatrix p(m, n);
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c < n; ++c)
        if (rng.bernoulli(density)) p.set(r, c, rng.uniform(-10.0, 10.0));
    // A few overwrites of already-observed entries (must not duplicate
    // list entries).
    for (int k = 0; k < 5 && p.observed_count() > 0; ++k) {
      const std::size_t r = rng.uniform_index(m);
      const std::size_t c = rng.uniform_index(n);
      p.set(r, c, rng.uniform(-10.0, 10.0));
    }
    expect_matches_dense_reference(p);
  }
}

TEST(PartialMatrixChurn, ClearRestoreAndOverwriteMatchFreshRebuild) {
  // Exhaustive set/clear churn over a small grid, checking the incremental
  // state against the dense reference after every kind of mutation the LOO
  // quality gate performs.
  const std::size_t m = 6, n = 5;
  cs::PartialMatrix p(m, n);
  Rng rng(7);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if ((r + c) % 2 == 0) p.set(r, c, rng.uniform(0.0, 1.0));
  expect_matches_dense_reference(p);

  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      if (p.observed(r, c)) {
        // LOO churn: clear then restore the same value.
        const double held_out = p.value(r, c);
        p.clear(r, c);
        EXPECT_FALSE(p.observed(r, c));
        expect_matches_dense_reference(p);
        p.set(r, c, held_out);
        EXPECT_TRUE(p.observed(r, c));
        EXPECT_EQ(p.value(r, c), held_out);
        // set/clear/set the same entry with a different value.
        p.set(r, c, held_out + 1.0);
        p.clear(r, c);
        p.set(r, c, held_out);
        expect_matches_dense_reference(p);
      } else {
        // Clearing an unobserved entry stays a no-op.
        const std::size_t before = p.observed_count();
        p.clear(r, c);
        EXPECT_EQ(p.observed_count(), before);
        expect_matches_dense_reference(p);
      }
    }
}

TEST(PartialMatrixFingerprint, CachedUntilMutatedAndRestoredByEqualContent) {
  cs::PartialMatrix p(4, 4);
  p.set(0, 0, 1.5);
  p.set(2, 3, -2.0);
  const std::uint64_t fp = p.fingerprint();
  EXPECT_EQ(p.fingerprint(), fp);
  EXPECT_EQ(p.fingerprint_computations(), 1u);  // second call hit the cache

  // Re-setting the identical value leaves content and cache untouched.
  p.set(0, 0, 1.5);
  EXPECT_EQ(p.fingerprint(), fp);
  EXPECT_EQ(p.fingerprint_computations(), 1u);

  // Clear + restore recomputes, but lands on the same hash.
  p.clear(2, 3);
  EXPECT_NE(p.fingerprint(), fp);
  p.set(2, 3, -2.0);
  EXPECT_EQ(p.fingerprint(), fp);

  // A value change lands on a different hash.
  p.set(0, 0, 1.25);
  EXPECT_NE(p.fingerprint(), fp);
}

/// Rank-2 field with a tunable share of entries observed.
cs::PartialMatrix make_low_rank_window(std::size_t cells, std::size_t cycles,
                                       std::uint64_t seed,
                                       double density = 0.6) {
  Rng rng(seed);
  cs::PartialMatrix window(cells, cycles);
  for (std::size_t r = 0; r < cells; ++r) {
    const double base = 20.0 + 0.7 * static_cast<double>(r);
    const double gain = 1.0 + 0.1 * static_cast<double>(r % 5);
    for (std::size_t c = 0; c < cycles; ++c)
      if (c < 2 || rng.bernoulli(density))
        window.set(r, c,
                   base + gain * std::sin(0.4 * static_cast<double>(c)));
  }
  return window;
}

TEST(FingerprintSharing, InferAndLooGateComputeOneFingerprintPerCycle) {
  // The regression the ROADMAP called out: the LOO quality gate used to
  // re-hash the window on every call. With the cache inside PartialMatrix,
  // one sensing step — inference plus gate decision on the unchanged
  // window — computes the fingerprint exactly once.
  const std::size_t cells = 10, cycles = 8;
  cs::PartialMatrix window = make_low_rank_window(cells, cycles, 3, 0.7);
  const std::size_t col = cycles - 1;
  // The assessed column needs observed and unobserved cells for the gate.
  window.set(0, col, 20.0);
  window.set(1, col, 20.5);
  window.set(2, col, 21.0);
  window.clear(5, col);
  ASSERT_EQ(window.fingerprint_computations(), 0u);

  Matrix truth(cells, cycles, 20.0);
  const mcs::SensingTask task(
      "fp-sharing", truth, data::grid_coords(2, 5, 1.0, 1.0),
      mcs::ErrorMetric::mae());
  const auto engine = std::make_shared<cs::MatrixCompletion>();
  const mcs::LooBayesianGate gate(0.5, 0.9);

  const Matrix inferred = engine->infer(window);
  EXPECT_EQ(window.fingerprint_computations(), 1u);
  const mcs::QualityContext ctx{task, window, col, col, &inferred, *engine};
  (void)gate.probability(ctx);
  EXPECT_EQ(window.fingerprint_computations(), 1u)
      << "the gate's LOO fit must reuse the cycle's cached fingerprint";
  (void)gate.probability(ctx);
  (void)engine->infer(window);
  EXPECT_EQ(window.fingerprint_computations(), 1u);

  // Next cycle: one new observation, one new fingerprint.
  window.set(6, col, 20.2);
  (void)engine->infer(window);
  (void)gate.probability(ctx);
  EXPECT_EQ(window.fingerprint_computations(), 2u);
}

TEST(ParallelAls, PooledSweepsBitIdenticalToSerial) {
  // Big enough that the sweep splits into several chunks per phase (the
  // chunking targets ~1024 observations per chunk).
  const auto window = make_low_rank_window(300, 40, 17, 0.4);
  ASSERT_GT(window.observed_count(), 4000u);

  cs::MatrixCompletionOptions opts;
  opts.warm_start = false;
  cs::MatrixCompletion serial_engine(opts);
  util::ThreadPool serial_pool(0);
  serial_engine.set_thread_pool(&serial_pool);
  cs::MatrixCompletion pooled_engine(opts);
  util::ThreadPool pool(3);
  pooled_engine.set_thread_pool(&pool);

  EXPECT_EQ(serial_engine.infer(window), pooled_engine.infer(window));

  // Warm-started engines must agree too (resume + polish sweeps).
  cs::MatrixCompletion warm_serial;
  warm_serial.set_thread_pool(&serial_pool);
  cs::MatrixCompletion warm_pooled;
  warm_pooled.set_thread_pool(&pool);
  auto evolving = window;
  Rng rng(9);
  for (int step = 0; step < 3; ++step) {
    for (int k = 0; k < 30; ++k) {
      const std::size_t r = rng.uniform_index(evolving.rows());
      const std::size_t c = rng.uniform_index(evolving.cols());
      if (!evolving.observed(r, c))
        evolving.set(r, c, 20.0 + 0.1 * static_cast<double>(r));
    }
    EXPECT_EQ(warm_serial.infer(evolving), warm_pooled.infer(evolving))
        << "step " << step;
  }
}

TEST(ParallelAls, MetroTrainingWindowBitIdenticalAtZeroOneThreeWorkers) {
  // The golden metro window (tests/als_golden_test.cpp): long runs of equal
  // observation lists in both half-sweeps, which the pool's chunk bounds cut
  // at different places for each worker count.
  const Matrix truth =
      data::make_metro_scale_task(50, 50, 24, 20180).ground_truth();
  const auto window = testing::make_metro_training_window(truth, 16);
  const auto grown = testing::make_metro_training_window(truth, 17);
  const std::size_t current = window.cols() - 1;

  struct Outputs {
    Matrix cold;
    std::vector<double> loo;
    Matrix warm;
  };
  const auto run = [&](std::size_t workers) {
    util::ThreadPool pool(workers);
    cs::MatrixCompletion engine;
    engine.set_thread_pool(&pool);
    Outputs out{engine.infer(window),
                engine.loo_column_predictions(window, current), Matrix()};
    out.warm = engine.infer(grown);  // trusted warm polish
    return out;
  };
  const Outputs serial = run(0);
  for (std::size_t workers : {1u, 3u}) {
    const Outputs pooled = run(workers);
    EXPECT_EQ(pooled.cold, serial.cold) << workers << " workers";
    EXPECT_EQ(pooled.loo, serial.loo) << workers << " workers";
    EXPECT_EQ(pooled.warm, serial.warm) << workers << " workers";
  }
}

TEST(ParallelAls, SlidServingWindowBitIdenticalAtZeroOneThreeWorkers) {
  // The serving window fitted cold, then slid by one cycle: the resume from
  // the shifted factors (one newest-column solve, then the polish sweeps)
  // and the LOO pass over it must not depend on the worker count.
  const Matrix truth =
      data::make_city_scale_task(25, 40, 14, 1000).ground_truth();
  const auto before = testing::make_serving_window(truth, 0, 64);
  const auto slid = testing::make_serving_window(truth, 1, 64);
  const std::size_t current = slid.cols() - 1;

  const auto run = [&](std::size_t workers) {
    util::ThreadPool pool(workers);
    cs::MatrixCompletion engine;
    engine.set_thread_pool(&pool);
    (void)engine.infer(before);
    const Matrix warm = engine.infer(slid);
    return std::make_pair(warm,
                          engine.loo_column_predictions(slid, current));
  };
  const auto serial = run(0);
  for (std::size_t workers : {1u, 3u}) {
    const auto pooled = run(workers);
    EXPECT_EQ(pooled.first, serial.first) << workers << " workers";
    EXPECT_EQ(pooled.second, serial.second) << workers << " workers";
  }
}

TEST(ParallelLoo, PooledSolvesBitIdenticalToSerial) {
  // Mirrors ParallelAls above for the other pooled completion path: the
  // per-cell leave-one-out solves fan out over the pool, and the held-out
  // predictions — hence the quality-gate decision — must be bit-identical
  // to the strictly serial pool for any worker count.
  const auto window = make_low_rank_window(120, 30, 23, 0.35);
  const std::size_t col = window.cols() - 1;
  ASSERT_GT(window.observed_rows_in_col(col).size(), 10u);

  cs::MatrixCompletionOptions opts;
  opts.warm_start = false;
  cs::MatrixCompletion serial_engine(opts);
  util::ThreadPool serial_pool(0);
  serial_engine.set_thread_pool(&serial_pool);
  cs::MatrixCompletion pooled_engine(opts);
  util::ThreadPool pool(3);
  pooled_engine.set_thread_pool(&pool);

  const auto serial = serial_engine.loo_column_predictions(window, col);
  const auto pooled = pooled_engine.loo_column_predictions(window, col);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], pooled[i]) << "held-out index " << i;

  // The gate consuming those predictions must agree exactly too.
  Matrix truth(window.rows(), window.cols(), 20.0);
  const mcs::SensingTask task(
      "parallel-loo", truth, data::grid_coords(10, 12, 1.0, 1.0),
      mcs::ErrorMetric::mae());
  const mcs::LooBayesianGate gate(0.5, 0.9);
  const mcs::QualityContext serial_ctx{task,    window, col, col,
                                       nullptr, serial_engine};
  const mcs::QualityContext pooled_ctx{task,    window, col, col,
                                       nullptr, pooled_engine};
  EXPECT_EQ(gate.probability(serial_ctx), gate.probability(pooled_ctx));
}

}  // namespace
}  // namespace drcell
