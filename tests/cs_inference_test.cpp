#include <gtest/gtest.h>

#include <cmath>

#include "cs/committee.h"
#include "cs/knn_inference.h"
#include "cs/matrix_completion.h"
#include "cs/mean_inference.h"
#include "cs/partial_matrix.h"
#include "cs/temporal_inference.h"
#include "util/rng.h"

namespace drcell::cs {
namespace {

/// Exactly rank-2 matrix (outer product + outer product).
Matrix make_low_rank(std::size_t m, std::size_t n, Rng& rng) {
  std::vector<double> u1(m), v1(n), u2(m), v2(n);
  for (auto& x : u1) x = rng.uniform(0.5, 1.5);
  for (auto& x : v1) x = rng.uniform(0.5, 1.5);
  for (auto& x : u2) x = rng.normal();
  for (auto& x : v2) x = rng.normal();
  Matrix d(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      d(i, j) = 10.0 + 3.0 * u1[i] * v1[j] + u2[i] * v2[j];
  return d;
}

PartialMatrix sample_entries(const Matrix& d, double fraction, Rng& rng) {
  PartialMatrix p(d.rows(), d.cols());
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < d.cols(); ++j)
      if (rng.bernoulli(fraction)) p.set(i, j, d(i, j));
  return p;
}

TEST(PartialMatrix, SetClearAndCounts) {
  PartialMatrix p(3, 4);
  EXPECT_EQ(p.observed_count(), 0u);
  p.set(1, 2, 5.0);
  EXPECT_TRUE(p.observed(1, 2));
  EXPECT_EQ(p.value(1, 2), 5.0);
  EXPECT_EQ(p.observed_count(), 1u);
  p.set(1, 2, 6.0);  // overwrite, no double count
  EXPECT_EQ(p.observed_count(), 1u);
  EXPECT_EQ(p.value(1, 2), 6.0);
  p.clear(1, 2);
  EXPECT_FALSE(p.observed(1, 2));
  EXPECT_EQ(p.observed_count(), 0u);
}

TEST(PartialMatrix, ReadingUnobservedThrows) {
  PartialMatrix p(2, 2);
  EXPECT_THROW(p.value(0, 0), CheckError);
}

TEST(PartialMatrix, RowColQueries) {
  PartialMatrix p(3, 3);
  p.set(0, 1, 1.0);
  p.set(2, 1, 2.0);
  p.set(2, 2, 3.0);
  EXPECT_EQ(p.observed_count_in_col(1), 2u);
  EXPECT_EQ(p.observed_count_in_row(2), 2u);
  EXPECT_EQ(p.observed_rows_in_col(1), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(p.observed_cols_in_row(2), (std::vector<std::size_t>{1, 2}));
}

TEST(PartialMatrix, ObservedMean) {
  PartialMatrix p(2, 2);
  EXPECT_EQ(p.observed_mean(), 0.0);
  p.set(0, 0, 2.0);
  p.set(1, 1, 4.0);
  EXPECT_DOUBLE_EQ(p.observed_mean(), 3.0);
}

TEST(PartialMatrix, IndexOutOfRangeThrows) {
  PartialMatrix p(2, 2);
  EXPECT_THROW(p.set(2, 0, 1.0), CheckError);
  EXPECT_THROW(p.observed(0, 2), CheckError);
}

TEST(MatrixCompletion, RecoversLowRankMatrix) {
  Rng rng(1);
  const Matrix d = make_low_rank(12, 20, rng);
  const PartialMatrix p = sample_entries(d, 0.5, rng);
  MatrixCompletionOptions opt;
  opt.rank = 3;
  const MatrixCompletion mc(opt);
  const Matrix est = mc.infer(p);
  double err = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < d.cols(); ++j)
      if (!p.observed(i, j)) {
        err += std::fabs(est(i, j) - d(i, j));
        ++count;
      }
  err /= static_cast<double>(count);
  // Relative to the data scale (~10), recovery should be tight.
  EXPECT_LT(err, 0.35) << "mean abs error " << err;
}

TEST(MatrixCompletion, KeepsObservedEntriesExact) {
  Rng rng(2);
  const Matrix d = make_low_rank(8, 10, rng);
  const PartialMatrix p = sample_entries(d, 0.4, rng);
  const Matrix est = MatrixCompletion().infer(p);
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < d.cols(); ++j)
      if (p.observed(i, j)) EXPECT_EQ(est(i, j), d(i, j));
}

TEST(MatrixCompletion, EmptyObservationFallsBackToZeroMean) {
  PartialMatrix p(4, 4);
  const Matrix est = MatrixCompletion().infer(p);
  EXPECT_EQ(est.max_abs(), 0.0);
}

TEST(MatrixCompletion, SingleObservationGivesConstantField) {
  PartialMatrix p(4, 4);
  p.set(1, 1, 7.5);
  const Matrix est = MatrixCompletion().infer(p);
  EXPECT_FALSE(est.has_non_finite());
  // Every unobserved estimate should be near the only evidence available.
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(est(i, j), 7.5, 1.0);
}

TEST(MatrixCompletion, MoreObservationsReduceError) {
  Rng rng(3);
  const Matrix d = make_low_rank(10, 16, rng);
  auto error_at = [&](double fraction, std::uint64_t seed) {
    Rng sample_rng(seed);
    const PartialMatrix p = sample_entries(d, fraction, sample_rng);
    const Matrix est = MatrixCompletion().infer(p);
    double err = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < d.rows(); ++i)
      for (std::size_t j = 0; j < d.cols(); ++j)
        if (!p.observed(i, j)) {
          err += std::fabs(est(i, j) - d(i, j));
          ++count;
        }
    return count ? err / static_cast<double>(count) : 0.0;
  };
  // Average over a few samplings to avoid single-draw flakiness.
  double sparse = 0.0, dense = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    sparse += error_at(0.15, 100 + s);
    dense += error_at(0.6, 200 + s);
  }
  EXPECT_LT(dense, sparse);
}

TEST(MatrixCompletion, DeterministicAcrossCalls) {
  Rng rng(4);
  const Matrix d = make_low_rank(6, 8, rng);
  const PartialMatrix p = sample_entries(d, 0.5, rng);
  const MatrixCompletion mc;
  EXPECT_EQ(mc.infer(p), mc.infer(p));
}

TEST(MatrixCompletion, RejectsBadOptions) {
  MatrixCompletionOptions opt;
  opt.rank = 0;
  EXPECT_THROW(MatrixCompletion{opt}, CheckError);
  opt.rank = 2;
  opt.frobenius_tol = -1.0;
  EXPECT_THROW(MatrixCompletion{opt}, CheckError);
}

TEST(KnnInference, DistanceHelper) {
  EXPECT_DOUBLE_EQ(euclidean_distance({0, 0}, {3, 4}), 5.0);
}

TEST(KnnInference, InterpolatesFromNearestNeighbours) {
  // 4 cells on a line at x = 0, 1, 2, 3; observe the ends of one cycle.
  KnnInference knn({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  PartialMatrix p(4, 1);
  p.set(0, 0, 0.0);
  p.set(3, 0, 9.0);
  const Matrix est = knn.infer(p);
  // Cell 1 is nearer to cell 0 -> weighted below midpoint.
  EXPECT_GT(est(1, 0), 0.0);
  EXPECT_LT(est(1, 0), 4.5);
  EXPECT_GT(est(2, 0), 4.5);
  EXPECT_LT(est(2, 0), 9.0);
  // Inverse-distance weights 1/d: (0·1 + 9·½) / 1.5 and (0·½ + 9·1) / 1.5.
  EXPECT_DOUBLE_EQ(est(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(est(2, 0), 6.0);
}

TEST(KnnInference, CoincidentCellCopiesValue) {
  KnnInference knn({{0, 0}, {0, 0}, {5, 5}});
  PartialMatrix p(3, 1);
  p.set(0, 0, 42.0);
  const Matrix est = knn.infer(p);
  EXPECT_EQ(est(1, 0), 42.0);
}

TEST(KnnInference, EmptyCycleFallsBackToCellMean) {
  KnnInference knn({{0, 0}, {10, 0}});
  PartialMatrix p(2, 2);
  p.set(0, 0, 4.0);  // only cycle 0 observed
  const Matrix est = knn.infer(p);
  EXPECT_NEAR(est(0, 1), 4.0, 1e-12);  // cell 0's own mean
}

TEST(KnnInference, CoordinateCountMismatchThrows) {
  KnnInference knn({{0, 0}, {1, 1}});
  PartialMatrix p(3, 1);
  p.set(0, 0, 1.0);
  EXPECT_THROW(knn.infer(p), CheckError);
}

TEST(MeanInference, UsesColumnThenRowThenGlobal) {
  MeanInference mi;
  PartialMatrix p(3, 3);
  p.set(0, 0, 2.0);
  p.set(1, 0, 4.0);
  p.set(2, 2, 10.0);
  const Matrix est = mi.infer(p);
  EXPECT_DOUBLE_EQ(est(2, 0), 3.0);   // column-0 mean
  EXPECT_DOUBLE_EQ(est(2, 1), 10.0);  // column 1 empty -> row-2 mean
  EXPECT_DOUBLE_EQ(est(0, 0), 2.0);   // observed passthrough
}

TEST(TemporalInterpolation, LinearBetweenObservations) {
  TemporalInterpolation ti;
  PartialMatrix p(1, 5);
  p.set(0, 0, 0.0);
  p.set(0, 4, 8.0);
  const Matrix est = ti.infer(p);
  EXPECT_NEAR(est(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(est(0, 2), 4.0, 1e-12);
  EXPECT_NEAR(est(0, 3), 6.0, 1e-12);
}

TEST(TemporalInterpolation, ConstantExtrapolationAtEnds) {
  TemporalInterpolation ti;
  PartialMatrix p(1, 5);
  p.set(0, 2, 3.0);
  const Matrix est = ti.infer(p);
  EXPECT_EQ(est(0, 0), 3.0);
  EXPECT_EQ(est(0, 4), 3.0);
}

TEST(TemporalInterpolation, UnobservedCellUsesCycleMeans) {
  TemporalInterpolation ti;
  PartialMatrix p(2, 2);
  p.set(0, 0, 2.0);
  p.set(0, 1, 6.0);
  const Matrix est = ti.infer(p);
  EXPECT_EQ(est(1, 0), 2.0);
  EXPECT_EQ(est(1, 1), 6.0);
}

TEST(Committee, RequiresTwoMembers) {
  std::vector<InferenceEnginePtr> one;
  one.push_back(std::make_shared<MeanInference>());
  EXPECT_THROW(InferenceCommittee{std::move(one)}, CheckError);
}

TEST(Committee, DisagreementIsZeroForIdenticalPredictions) {
  const std::vector<Matrix> preds{Matrix(2, 2, 3.0), Matrix(2, 2, 3.0)};
  EXPECT_EQ(InferenceCommittee::disagreement(preds).max_abs(), 0.0);
}

TEST(Committee, DisagreementMatchesVarianceFormula) {
  const std::vector<Matrix> preds{Matrix(1, 1, 1.0), Matrix(1, 1, 3.0),
                                  Matrix(1, 1, 5.0)};
  // Population variance of {1,3,5} = 8/3.
  EXPECT_NEAR(InferenceCommittee::disagreement(preds)(0, 0), 8.0 / 3.0,
              1e-12);
}

TEST(Committee, InferAllRunsEveryMember) {
  std::vector<InferenceEnginePtr> members;
  members.push_back(std::make_shared<MeanInference>());
  members.push_back(std::make_shared<TemporalInterpolation>());
  InferenceCommittee committee(std::move(members));
  PartialMatrix p(2, 4);
  p.set(0, 0, 1.0);
  p.set(0, 3, 7.0);
  const auto preds = committee.infer_all(p);
  ASSERT_EQ(preds.size(), 2u);
  // Members genuinely disagree on cycle 1 of cell 0: the temporal
  // interpolator gives 1 + (1/3)·6 = 3, the mean engine gives the row
  // mean 4.
  EXPECT_NE(preds[0](0, 1), preds[1](0, 1));
}

}  // namespace
}  // namespace drcell::cs
