// Tests for the hot-path overhaul: blocked matmul vs the retained naive
// reference, matmul_into storage reuse, warm-started ALS matching the
// cold-start solution, thread-pooled committee/trainer parity with the
// serial paths, and the DCHECK demotion scheme.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cs/committee.h"
#include "cs/matrix_completion.h"
#include "cs/mean_inference.h"
#include "cs/temporal_inference.h"
#include "data/datasets.h"
#include "linalg/matrix.h"
#include "rl/dqn_trainer.h"
#include "rl/drqn_qnetwork.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace drcell {
namespace {

using testing::make_matrix;

double max_abs_diff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  return worst;
}

TEST(BlockedMatmul, MatchesNaiveReferenceOnRandomShapes) {
  // Shapes straddle the tile boundaries (32/128): smaller, exact multiples,
  // and non-multiples in every dimension.
  const std::size_t shapes[][3] = {{1, 57, 64},   {3, 5, 7},    {32, 32, 32},
                                   {33, 65, 17},  {31, 129, 100}, {64, 128, 96},
                                   {130, 33, 129}, {2, 1, 2}};
  Rng rng(42);
  for (const auto& s : shapes) {
    const Matrix a = random_normal_matrix(s[0], s[1], rng);
    const Matrix b = random_normal_matrix(s[1], s[2], rng);
    const Matrix fast = a.matmul(b);
    const Matrix ref = a.matmul_naive(b);
    EXPECT_LE(max_abs_diff(fast, ref), 1e-10 * static_cast<double>(s[1]))
        << "shape " << s[0] << "x" << s[1] << "x" << s[2];
    // The retained seed kernel accumulates in the same k-order as the
    // blocked kernel, so it must agree bit for bit.
    EXPECT_EQ(fast, a.matmul_unblocked(b))
        << "shape " << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(BlockedMatmul, MatmulIntoReusesStorageAndMatchesMatmul) {
  Rng rng(7);
  const Matrix a = random_normal_matrix(40, 70, rng);
  const Matrix b = random_normal_matrix(70, 50, rng);
  Matrix out;
  a.matmul_into(b, out);
  EXPECT_EQ(out, a.matmul(b));

  // A smaller product into the same output must recycle the allocation.
  const double* storage = out.data().data();
  const Matrix c = random_normal_matrix(10, 70, rng);
  c.matmul_into(b, out);
  EXPECT_EQ(out.data().data(), storage);
  EXPECT_EQ(out, c.matmul(b));
}

TEST(BlockedMatmul, MatmulIntoRejectsAliasedOutput) {
  Matrix a = make_matrix({{1.0, 2.0}, {3.0, 4.0}});
  Matrix b = make_matrix({{1.0, 0.0}, {0.0, 1.0}});
  EXPECT_THROW(a.matmul_into(b, a), CheckError);
  EXPECT_THROW(a.matmul_into(b, b), CheckError);
}

TEST(CheckScheme, StructuralChecksStayOnInRelease) {
  Matrix a(2, 3);
  Matrix b(4, 5);
  EXPECT_THROW(a.matmul(b), CheckError);      // shape mismatch
  EXPECT_THROW(a.at(2, 0), CheckError);       // at() is always checked
  EXPECT_THROW(a.at(0, 3), CheckError);
#if DRCELL_DCHECKS_ACTIVE
  EXPECT_THROW(a(2, 0), CheckError);          // hot-path checks in DCHECK builds
#endif
}

TEST(Committee, DisagreementRejectsShapeMismatchedMembers) {
  std::vector<Matrix> predictions;
  predictions.emplace_back(3, 4, 1.0);
  predictions.emplace_back(3, 4, 2.0);
  predictions.emplace_back(2, 4, 3.0);  // wrong row count
  EXPECT_THROW(cs::InferenceCommittee::disagreement(predictions), CheckError);
  predictions[2] = Matrix(3, 5, 3.0);   // wrong column count
  EXPECT_THROW(cs::InferenceCommittee::disagreement(predictions), CheckError);
}

/// Rank-2 field with ~60% of entries observed; enough structure for ALS to
/// nail the reconstruction.
cs::PartialMatrix make_low_rank_window(std::size_t cells, std::size_t cycles,
                                       std::uint64_t seed,
                                       Matrix* truth_out = nullptr,
                                       double freq = 0.4) {
  Rng rng(seed);
  Matrix truth(cells, cycles);
  for (std::size_t r = 0; r < cells; ++r) {
    const double base = 20.0 + 0.7 * static_cast<double>(r);
    const double gain = 1.0 + 0.1 * static_cast<double>(r % 5);
    for (std::size_t c = 0; c < cycles; ++c)
      truth(r, c) =
          base + gain * std::sin(freq * static_cast<double>(c));
  }
  cs::PartialMatrix window(cells, cycles);
  for (std::size_t r = 0; r < cells; ++r)
    for (std::size_t c = 0; c < cycles; ++c)
      if (c < 2 || rng.bernoulli(0.6)) window.set(r, c, truth(r, c));
  if (truth_out != nullptr) *truth_out = truth;
  return window;
}

TEST(WarmStartAls, RepeatInferMatchesColdStartWithinTightTolerance) {
  const auto window = make_low_rank_window(12, 20, 11);

  cs::MatrixCompletionOptions cold_opts;
  cold_opts.warm_start = false;
  const cs::MatrixCompletion cold(cold_opts);
  const Matrix cold_result = cold.infer(window);

  const cs::MatrixCompletion warm;  // warm_start defaults to true
  const Matrix first = warm.infer(window);
  // First call starts from the same random init — identical to cold.
  EXPECT_LE(max_abs_diff(first, cold_result), 1e-12);

  // Second call over the unchanged window hits the fingerprint fast path
  // and returns the cached factors — identical to the cold solution (well
  // inside the 1e-9 MAE budget).
  const Matrix second = warm.infer(window);
  EXPECT_LE(max_abs_diff(second, cold_result), 1e-9);
  EXPECT_EQ(second, cold_result);

  // And a fresh engine, with no cache, is back on the cold path bit for bit.
  const cs::MatrixCompletion fresh;
  EXPECT_LE(max_abs_diff(fresh.infer(window), cold_result), 1e-12);
}

TEST(WarmStartAls, DissimilarWindowFallsBackToColdStart) {
  // Same shape, unrelated content (a decorrelated temporal frequency): the
  // RMSE guard must reject the resume, making the warm engine's solve
  // bit-identical to a cold engine's.
  const auto window_a = make_low_rank_window(12, 20, 11);
  const auto window_b =
      make_low_rank_window(12, 20, 77, /*truth_out=*/nullptr, /*freq=*/2.9);

  const cs::MatrixCompletion warm;
  (void)warm.infer(window_a);  // populate the cache with A's factors

  cs::MatrixCompletionOptions cold_opts;
  cold_opts.warm_start = false;
  const cs::MatrixCompletion cold(cold_opts);
  EXPECT_EQ(warm.infer(window_b), cold.infer(window_b));
}

TEST(WarmStartAls, EvolvingWindowKeepsColdStartAccuracy) {
  Matrix truth;
  auto window = make_low_rank_window(10, 16, 23, &truth);
  const cs::MatrixCompletion warm;
  cs::MatrixCompletionOptions cold_opts;
  cold_opts.warm_start = false;
  const cs::MatrixCompletion cold(cold_opts);

  Rng rng(31);
  for (int step = 0; step < 6; ++step) {
    // Reveal a few more entries, as one sensing cycle would.
    for (int added = 0; added < 4; ++added) {
      const std::size_t r = rng.uniform_index(truth.rows());
      const std::size_t c = rng.uniform_index(truth.cols());
      if (!window.observed(r, c)) window.set(r, c, truth(r, c));
    }
    const Matrix warm_est = warm.infer(window);
    const Matrix cold_est = cold.infer(window);
    double warm_mae = 0.0, cold_mae = 0.0;
    for (std::size_t i = 0; i < truth.data().size(); ++i) {
      warm_mae += std::fabs(warm_est.data()[i] - truth.data()[i]);
      cold_mae += std::fabs(cold_est.data()[i] - truth.data()[i]);
    }
    warm_mae /= static_cast<double>(truth.data().size());
    cold_mae /= static_cast<double>(truth.data().size());
    // The warm path must not trade accuracy for speed.
    EXPECT_LE(warm_mae, cold_mae + 0.05)
        << "step " << step << ": warm " << warm_mae << " cold " << cold_mae;
  }
}

// The serving workload's window one cycle after a fit: every column now
// holds the next cycle, so the cached factors describe the wrong cycles.
// Returns the warm engine's estimate of the slid window, and the cold
// engine's in `cold_out`.
Matrix infer_after_slide(const Matrix& truth, std::size_t newest,
                         Matrix* cold_out) {
  const cs::MatrixCompletion warm;  // warm_start defaults to true
  (void)warm.infer(testing::make_serving_window(truth, 0, 64));
  const auto slid = testing::make_serving_window(truth, 1, newest);
  cs::MatrixCompletionOptions cold_opts;
  cold_opts.warm_start = false;
  *cold_out = cs::MatrixCompletion(cold_opts).infer(slid);
  return warm.infer(slid);
}

TEST(WarmStartAls, SlidWindowResumesFromShiftedFactors) {
  const Matrix truth =
      data::make_city_scale_task(25, 40, 14, 1000).ground_truth();
  Matrix cold_est;
  const Matrix warm_est = infer_after_slide(truth, 64, &cold_est);
  // A cold start would give the cold engine's bits; the 64 cells sensed in
  // the newest column let the shifted factors in instead.
  EXPECT_NE(warm_est, cold_est);
  // The slid window covers truth cycles 1..12.
  double warm_mae = 0.0, cold_mae = 0.0;
  for (std::size_t r = 0; r < warm_est.rows(); ++r)
    for (std::size_t c = 0; c < warm_est.cols(); ++c) {
      warm_mae += std::fabs(warm_est(r, c) - truth(r, c + 1));
      cold_mae += std::fabs(cold_est(r, c) - truth(r, c + 1));
    }
  warm_mae /= static_cast<double>(warm_est.data().size());
  cold_mae /= static_cast<double>(warm_est.data().size());
  // The EvolvingWindowKeepsColdStartAccuracy tolerance.
  EXPECT_LE(warm_mae, cold_mae + 0.05)
      << "warm " << warm_mae << " cold " << cold_mae;
}

TEST(WarmStartAls, SlidWindowWithSparseNewestColumnStartsCold) {
  // Fewer new observations than the rank (5) cannot pin the newest
  // column's factor down, so the slid window goes cold.
  const Matrix truth =
      data::make_city_scale_task(25, 40, 14, 1000).ground_truth();
  Matrix cold_est;
  EXPECT_EQ(infer_after_slide(truth, 4, &cold_est), cold_est);
}

TEST(PooledCommittee, InferAllBitIdenticalToSerial) {
  const auto window = make_low_rank_window(8, 12, 3);

  const auto make_committee = [] {
    cs::MatrixCompletionOptions mc_opts;
    mc_opts.warm_start = false;  // keep members stateless for the comparison
    std::vector<cs::InferenceEnginePtr> members;
    members.push_back(std::make_shared<cs::MeanInference>());
    members.push_back(std::make_shared<cs::TemporalInterpolation>());
    members.push_back(std::make_shared<cs::MatrixCompletion>(mc_opts));
    return cs::InferenceCommittee(std::move(members));
  };

  auto serial_committee = make_committee();
  util::ThreadPool serial_pool(0);
  serial_committee.set_thread_pool(&serial_pool);
  const auto serial = serial_committee.infer_all(window);

  auto pooled_committee = make_committee();
  util::ThreadPool pool(3);
  pooled_committee.set_thread_pool(&pool);
  const auto pooled = pooled_committee.infer_all(window);

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], pooled[i]) << "member " << i;  // bit-wise
}

std::unique_ptr<rl::DqnTrainer> make_trainer(util::ThreadPool* pool) {
  Rng rng(1);
  rl::DqnOptions options;
  options.batch_size = 8;
  options.min_replay = 8;
  auto trainer = std::make_unique<rl::DqnTrainer>(
      std::make_unique<rl::DrqnQNetwork>(6, 2, 8, rng), options, 7);
  trainer->set_thread_pool(pool);
  Rng fill(3);
  for (int i = 0; i < 64; ++i) {
    rl::Experience e;
    e.state.assign(12, 0.0);
    e.state[fill.uniform_index(12)] = 1.0;
    e.action = fill.uniform_index(6);
    e.reward = fill.uniform(-1.0, 5.0);
    e.next_state.assign(12, 0.0);
    e.next_state[fill.uniform_index(12)] = 1.0;
    e.next_mask.assign(6, 1);
    trainer->observe(std::move(e));
  }
  return trainer;
}

TEST(PooledDqn, TrainStepBitIdenticalToSerial) {
  util::ThreadPool serial_pool(0);
  util::ThreadPool pool(2);
  auto serial = make_trainer(&serial_pool);
  auto pooled = make_trainer(&pool);
  for (int step = 0; step < 5; ++step) {
    const double loss_serial = serial->train_step();
    const double loss_pooled = pooled->train_step();
    EXPECT_EQ(loss_serial, loss_pooled) << "step " << step;  // bit-wise
  }
  const auto ps = serial->online().parameters();
  const auto pp = pooled->online().parameters();
  ASSERT_EQ(ps.size(), pp.size());
  for (std::size_t i = 0; i < ps.size(); ++i)
    EXPECT_EQ(ps[i]->value(), pp[i]->value()) << "param " << i;  // bit-wise
}

}  // namespace
}  // namespace drcell
