// The low-rank Nyström spatial sampler (data/synthetic_field.h): covariance
// error bound vs the exact kernel, the exact-path fallback below the size
// threshold, the spatial-factor cache, and the metro-scale task factory.
#include <gtest/gtest.h>

#include <cmath>

#include "cs/knn_inference.h"
#include "data/datasets.h"
#include "data/synthetic_field.h"
#include "util/statistics.h"
#include "util/thread_pool.h"

namespace drcell::data {
namespace {

FieldParams smooth_params() {
  FieldParams p;
  p.spatial_length = 300.0;  // 3 cells of the 100 m grids below
  p.nugget = 0.02;
  p.noise_sd = 0.0;
  return p;
}

TEST(NystromField, CovarianceErrorBoundedAgainstExactKernel) {
  // 400 cells, 128 landmarks, length scale 6 cells: F·Fᵀ must reproduce the
  // smooth kernel part (1 − nugget)·K_rbf to ≤1e-5 absolute (the
  // deterministic measured error is 2.2e-6) — three orders of magnitude
  // below the 0.02 nugget, i.e. the approximation is invisible next to the
  // field's own unpredictable component. The Nyström residual decays with
  // the length-scale-to-landmark-spacing ratio (~2.9 here, ~2.4 for the
  // metro task: err ~2e-5, same regime); the bound also absorbs the 1e-8
  // diagonal jitter.
  const auto coords = grid_coords(20, 20, 100.0, 100.0);
  SyntheticFieldGenerator gen(coords);
  FieldParams p = smooth_params();
  p.spatial_length = 600.0;
  p.nystrom_threshold = 0;  // force the low-rank path at 400 cells
  p.nystrom_landmarks = 128;

  const auto factor = gen.nystrom_factor(p);
  const Matrix& f = *factor;
  ASSERT_EQ(f.rows(), coords.size());
  ASSERT_EQ(f.cols(), 128u);

  Matrix approx;
  f.matmul_transposed_other_into(f, approx);
  const double amp = 1.0 - p.nugget;
  const double ell2 = p.spatial_length * p.spatial_length;
  double max_err = 0.0;
  for (std::size_t i = 0; i < coords.size(); ++i)
    for (std::size_t j = 0; j < coords.size(); ++j) {
      const double d = cs::euclidean_distance(coords[i], coords[j]);
      const double exact = amp * std::exp(-d * d / (2.0 * ell2));
      max_err = std::max(max_err, std::fabs(approx(i, j) - exact));
    }
  EXPECT_LT(max_err, 1e-5);
}

TEST(NystromField, FewLandmarksDegradeGracefully) {
  // With far fewer landmarks than effective modes the error grows but the
  // factor stays finite and PSD-sampled fields stay usable — the guard that
  // a mis-tuned landmark count fails soft, not hard.
  const auto coords = grid_coords(20, 20, 100.0, 100.0);
  SyntheticFieldGenerator gen(coords);
  FieldParams p = smooth_params();
  p.nystrom_threshold = 0;
  p.nystrom_landmarks = 8;
  const auto f = gen.nystrom_factor(p);
  EXPECT_EQ(f->cols(), 8u);
  EXPECT_FALSE(f->has_non_finite());
}

TEST(NystromField, ThresholdSelectsExactPathBitIdentically) {
  // Below the threshold the generator must keep the pre-Nyström exact
  // Cholesky draw stream: raising the threshold (both paths exact) and
  // regenerating from an equal seed yields the identical field.
  const auto coords = grid_coords(8, 8, 100.0, 100.0);
  FieldParams a = smooth_params();  // default threshold: 64 cells => exact
  FieldParams b = a;
  b.nystrom_threshold = 1000000;

  SyntheticFieldGenerator gen_a(coords);
  SyntheticFieldGenerator gen_b(coords);
  Rng rng_a(5), rng_b(5);
  EXPECT_EQ(gen_a.generate(a, 12, rng_a), gen_b.generate(b, 12, rng_b));

  // And asking for the Nyström factor under exact-path params is an error.
  EXPECT_THROW(gen_a.nystrom_factor(a), CheckError);
}

TEST(NystromField, FactorCacheHitsAcrossGenerateCalls) {
  SyntheticFieldGenerator::reset_shared_factor_cache();
  const auto coords = grid_coords(10, 10, 100.0, 100.0);
  SyntheticFieldGenerator gen(coords);
  const FieldParams p = smooth_params();
  Rng rng_a(7), rng_b(7);
  const Matrix first = gen.generate(p, 6, rng_a);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(), 0u);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 1u);
  // Second call reuses the cached Cholesky — and is bit-identical to what a
  // fresh generator would produce from the same seed (the cache is
  // transparent).
  const Matrix second = gen.generate(p, 6, rng_b);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(), 1u);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 1u);
  EXPECT_EQ(first, second);

  // A spatially different configuration misses the cache...
  FieldParams other = p;
  other.spatial_length = 450.0;
  Rng rng_c(9);
  (void)gen.generate(other, 6, rng_c);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(), 1u);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 2u);
  // ...while a change in non-spatial fields (temporal dynamics) hits it.
  FieldParams temporal = p;
  temporal.temporal_ar1 = 0.5;
  Rng rng_d(11);
  (void)gen.generate(temporal, 6, rng_d);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(), 2u);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 2u);
  SyntheticFieldGenerator::reset_shared_factor_cache();
}

TEST(NystromField, RegistryResetBetweenGenerateCallsRebuildsBitIdentically) {
  // A reset between two generate() calls on one generator costs a second
  // build and changes nothing else: the field is bit-identical, and a
  // factor handed out before the reset stays valid after it.
  SyntheticFieldGenerator::reset_shared_factor_cache();
  const auto coords = grid_coords(10, 10, 100.0, 100.0);
  SyntheticFieldGenerator gen(coords);
  FieldParams p = smooth_params();
  p.nystrom_threshold = 0;
  p.nystrom_landmarks = 32;

  Rng rng_a(7), rng_b(7);
  const Matrix first = gen.generate(p, 6, rng_a);
  const auto held = gen.nystrom_factor(p);
  const std::size_t builds_before_reset =
      SyntheticFieldGenerator::shared_factor_cache_builds();
  SyntheticFieldGenerator::reset_shared_factor_cache();
  const Matrix second = gen.generate(p, 6, rng_b);
  EXPECT_EQ(first, second);
  EXPECT_EQ(builds_before_reset +
                SyntheticFieldGenerator::shared_factor_cache_builds(),
            2u);
  const auto rebuilt = gen.nystrom_factor(p);
  EXPECT_NE(held.get(), rebuilt.get());
  EXPECT_EQ(*held, *rebuilt);
  SyntheticFieldGenerator::reset_shared_factor_cache();
}

TEST(NystromField, LowRankFieldHitsTargetMomentsAndCachesFactor) {
  SyntheticFieldGenerator::reset_shared_factor_cache();
  const auto coords = grid_coords(18, 18, 100.0, 100.0);
  SyntheticFieldGenerator gen(coords);
  FieldParams p = smooth_params();
  p.nystrom_threshold = 0;  // force low-rank at 324 cells
  p.nystrom_landmarks = 96;
  p.mean = 15.0;
  p.stddev = 3.0;

  Rng rng(13);
  const Matrix field = gen.generate(p, 24, rng);
  ASSERT_EQ(field.rows(), coords.size());
  ASSERT_EQ(field.cols(), 24u);
  EXPECT_FALSE(field.has_non_finite());
  RunningStats stats;
  for (double x : field.data()) stats.add(x);
  // finalize() standardises empirically, so the sample moments match the
  // targets almost exactly.
  EXPECT_NEAR(stats.mean(), 15.0, 1e-9);
  EXPECT_NEAR(stats.stddev(), 3.0, 1e-9);

  Rng rng2(14);
  (void)gen.generate(p, 24, rng2);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(), 1u);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 1u);
  SyntheticFieldGenerator::reset_shared_factor_cache();
}

TEST(NystromField, BuildIsWorkerCountInvariant) {
  // The pooled factor build (cross-covariance rows, forward substitution)
  // must be bit-identical for any worker count — the pool determinism
  // contract. Fresh generator AND a shared-registry reset per count, so
  // every iteration pays a genuinely cold build.
  const auto coords = grid_coords(20, 20, 100.0, 100.0);
  FieldParams p = smooth_params();
  p.nystrom_threshold = 0;
  p.nystrom_landmarks = 64;

  Matrix reference;
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    SyntheticFieldGenerator::reset_shared_factor_cache();
    util::ThreadPool pool(workers);
    SyntheticFieldGenerator gen(coords);
    gen.set_thread_pool(&pool);
    const Matrix f = *gen.nystrom_factor(p);
    if (workers == 0)
      reference = f;
    else
      EXPECT_EQ(f, reference) << "workers=" << workers;
  }
  SyntheticFieldGenerator::reset_shared_factor_cache();
}

TEST(NystromField, SeededDrawsAreWorkerCountInvariant) {
  // Both draw paths keep their Gaussian streams serial from the caller rng
  // and pool only rng-free passes, so equal caller seeds must yield the
  // bit-identical field for 0/1/3 workers.
  const auto coords = grid_coords(15, 15, 100.0, 100.0);
  for (const bool low_rank : {true, false}) {
    FieldParams p = smooth_params();
    p.noise_sd = 0.1;  // exercise the assemble() noise stream too
    if (low_rank) {
      p.nystrom_threshold = 0;
      p.nystrom_landmarks = 48;
    }
    Matrix reference;
    for (std::size_t workers :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      SyntheticFieldGenerator::reset_shared_factor_cache();
      util::ThreadPool pool(workers);
      SyntheticFieldGenerator gen(coords);
      gen.set_thread_pool(&pool);
      Rng rng(17);
      const Matrix field = gen.generate(p, 16, rng);
      if (workers == 0)
        reference = field;
      else
        EXPECT_EQ(field, reference)
            << "workers=" << workers << " low_rank=" << low_rank;
    }
  }
  SyntheticFieldGenerator::reset_shared_factor_cache();
}

TEST(NystromField, SharedRegistryCountsColdBuildsAtBothTiers) {
  SyntheticFieldGenerator::reset_shared_factor_cache();
  const auto coords = grid_coords(10, 10, 100.0, 100.0);
  const FieldParams exact = smooth_params();  // 100 cells => exact tier
  FieldParams low_rank = smooth_params();
  low_rank.nystrom_threshold = 0;
  low_rank.nystrom_landmarks = 32;

  SyntheticFieldGenerator gen(coords);
  Rng rng(3);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 0u);
  (void)gen.generate(exact, 4, rng);  // cold dense Cholesky
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 1u);
  (void)gen.nystrom_factor(low_rank);  // cold Nyström factor
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 2u);

  // Warm at both tiers: a second same-coords generator hits the registry,
  // builds stays put, hits advances.
  const std::size_t hits_before =
      SyntheticFieldGenerator::shared_factor_cache_hits();
  SyntheticFieldGenerator warm(coords);
  Rng rng2(3);
  (void)warm.generate(exact, 4, rng2);
  (void)warm.nystrom_factor(low_rank);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_builds(), 2u);
  EXPECT_EQ(SyntheticFieldGenerator::shared_factor_cache_hits(),
            hits_before + 2);
  SyntheticFieldGenerator::reset_shared_factor_cache();
}

TEST(NystromField, MetroScaleTaskFactorySmoke) {
  // The factory at a reduced grid (the full 100 x 100 tier is exercised by
  // bench_scale_10000cell / example_scale_10000cell).
  const auto task = make_metro_scale_task(12, 12, 8, 1);
  EXPECT_EQ(task.num_cells(), 144u);
  EXPECT_EQ(task.num_cycles(), 8u);
  EXPECT_EQ(task.name(), "metro-scale-temperature");
  EXPECT_FALSE(task.ground_truth().has_non_finite());
}

}  // namespace
}  // namespace drcell::data
