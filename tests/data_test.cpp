#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "data/datasets.h"
#include "data/synthetic_field.h"
#include "data/task_io.h"
#include "test_helpers.h"
#include "util/statistics.h"

namespace drcell::data {
namespace {

TEST(GridCoords, LaysOutCentres) {
  const auto coords = grid_coords(2, 3, 10.0, 20.0);
  ASSERT_EQ(coords.size(), 6u);
  EXPECT_DOUBLE_EQ(coords[0].x, 5.0);
  EXPECT_DOUBLE_EQ(coords[0].y, 10.0);
  EXPECT_DOUBLE_EQ(coords[5].x, 25.0);
  EXPECT_DOUBLE_EQ(coords[5].y, 30.0);
}

TEST(SyntheticField, MatchesTargetMoments) {
  SyntheticFieldGenerator gen(grid_coords(4, 4, 10, 10));
  FieldParams params;
  params.mean = 25.0;
  params.stddev = 3.0;
  params.spatial_length = 15.0;
  Rng rng(1);
  const Matrix field = gen.generate(params, 200, rng);
  RunningStats stats;
  for (double v : field.data()) stats.add(v);
  EXPECT_NEAR(stats.mean(), 25.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(SyntheticField, DeterministicForSeed) {
  SyntheticFieldGenerator gen(grid_coords(3, 3, 10, 10));
  FieldParams params;
  Rng a(42), b(42);
  EXPECT_EQ(gen.generate(params, 20, a), gen.generate(params, 20, b));
}

TEST(SyntheticField, SpatialCorrelationDecaysWithDistance) {
  // Nearby cells should correlate more strongly over time than far cells.
  SyntheticFieldGenerator gen(grid_coords(1, 10, 10, 10));
  FieldParams params;
  params.spatial_length = 12.0;
  params.temporal_ar1 = 0.3;  // fast mixing -> more independent samples
  params.diurnal_amplitude = 0.0;
  Rng rng(7);
  const Matrix field = gen.generate(params, 600, rng);
  const auto row0 = field.row(0);
  const auto row1 = field.row(1);
  const auto row9 = field.row(9);
  const double near = pearson_correlation(row0, row1);
  const double far = pearson_correlation(row0, row9);
  EXPECT_GT(near, far + 0.2);
  EXPECT_GT(near, 0.5);
}

TEST(SyntheticField, TemporalSmoothness) {
  // Consecutive cycles must correlate strongly under high AR(1).
  SyntheticFieldGenerator gen(grid_coords(3, 3, 10, 10));
  FieldParams params;
  params.temporal_ar1 = 0.95;
  params.diurnal_amplitude = 0.0;
  Rng rng(8);
  const Matrix field = gen.generate(params, 300, rng);
  std::vector<double> now, next;
  for (std::size_t i = 0; i < field.rows(); ++i)
    for (std::size_t t = 0; t + 1 < field.cols(); ++t) {
      now.push_back(field(i, t));
      next.push_back(field(i, t + 1));
    }
  EXPECT_GT(pearson_correlation(now, next), 0.8);
}

TEST(SyntheticField, LognormalIsPositiveAndHeavyTailed) {
  SyntheticFieldGenerator gen(grid_coords(3, 3, 1000, 1000));
  FieldParams params;
  params.mean = 79.11;
  params.stddev = 81.21;
  params.spatial_length = 2000.0;
  params.lognormal = true;
  Rng rng(9);
  const Matrix field = gen.generate(params, 300, rng);
  RunningStats stats;
  for (double v : field.data()) {
    EXPECT_GT(v, 0.0);
    stats.add(v);
  }
  // Heavy tail: max far above mean + 2 std.
  EXPECT_GT(stats.max(), stats.mean() + 2.5 * stats.stddev());
}

TEST(SyntheticField, CorrelatedPairHitsRequestedRho) {
  SyntheticFieldGenerator gen(grid_coords(4, 4, 10, 10));
  FieldParams a, b;
  a.diurnal_amplitude = 0.0;
  b.diurnal_amplitude = 0.0;
  Rng rng(10);
  const auto [fa, fb] = gen.generate_correlated_pair(a, b, -0.8, 400, rng);
  const double rho = pearson_correlation(fa.data(), fb.data());
  EXPECT_NEAR(rho, -0.8, 0.1);
}

TEST(SyntheticField, InvalidParamsThrow) {
  SyntheticFieldGenerator gen(grid_coords(2, 2, 10, 10));
  FieldParams params;
  params.temporal_ar1 = 1.0;
  Rng rng(1);
  EXPECT_THROW(gen.generate(params, 10, rng), CheckError);
  params.temporal_ar1 = 0.5;
  params.stddev = 0.0;
  EXPECT_THROW(gen.generate(params, 10, rng), CheckError);
  FieldParams logn;
  logn.lognormal = true;
  logn.mean = -1.0;
  EXPECT_THROW(gen.generate(logn, 10, rng), CheckError);
}

TEST(Datasets, SensorScopeShapeMatchesTable1) {
  const auto ds = make_sensorscope_like(1);
  EXPECT_EQ(ds.temperature.num_cells(), 57u);
  EXPECT_EQ(ds.temperature.num_cycles(), 336u);  // 7 d of 0.5 h cycles
  EXPECT_EQ(ds.temperature.cycle_hours(), 0.5);
  EXPECT_EQ(ds.humidity.num_cells(), 57u);
  EXPECT_FALSE(ds.temperature.metric().is_classification());
}

TEST(Datasets, SensorScopeMomentsMatchTable1) {
  const auto ds = make_sensorscope_like(2);
  const auto temp = compute_stats(ds.temperature);
  EXPECT_NEAR(temp.mean, 6.04, 0.25);
  EXPECT_NEAR(temp.stddev, 1.87, 0.2);
  const auto hum = compute_stats(ds.humidity);
  EXPECT_NEAR(hum.mean, 84.52, 0.8);
  EXPECT_NEAR(hum.stddev, 6.32, 0.7);
  EXPECT_NEAR(temp.duration_days, 7.0, 1e-9);
}

TEST(Datasets, SensorScopeTasksAreAnticorrelated) {
  const auto ds = make_sensorscope_like(3);
  const double rho = pearson_correlation(ds.temperature.ground_truth().data(),
                                         ds.humidity.ground_truth().data());
  EXPECT_LT(rho, -0.5);
}

TEST(Datasets, UAirShapeAndMetric) {
  const auto ds = make_uair_like(1);
  EXPECT_EQ(ds.pm25.num_cells(), 36u);
  EXPECT_EQ(ds.pm25.num_cycles(), 264u);  // 11 d hourly
  EXPECT_EQ(ds.pm25.cycle_hours(), 1.0);
  EXPECT_TRUE(ds.pm25.metric().is_classification());
  const auto stats = compute_stats(ds.pm25);
  EXPECT_NEAR(stats.mean, 79.11, 8.0);
  EXPECT_NEAR(stats.stddev, 81.21, 20.0);
  EXPECT_GT(stats.min, 0.0);
  EXPECT_NEAR(stats.duration_days, 11.0, 1e-9);
}

TEST(Datasets, DifferentSeedsProduceDifferentFields) {
  const auto a = make_uair_like(1);
  const auto b = make_uair_like(2);
  EXPECT_NE(a.pm25.ground_truth(), b.pm25.ground_truth());
}

TEST(TaskIo, RoundTripContinuousTask) {
  const auto ds = make_sensorscope_like(4);
  const auto sliced = ds.temperature.slice_cycles(0, 10);
  std::stringstream ss;
  save_task_csv(ss, sliced);
  const auto loaded = load_task_csv(ss);
  EXPECT_EQ(loaded.num_cells(), sliced.num_cells());
  EXPECT_EQ(loaded.num_cycles(), sliced.num_cycles());
  EXPECT_EQ(loaded.cycle_hours(), sliced.cycle_hours());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < sliced.num_cells(); ++i)
    for (std::size_t t = 0; t < sliced.num_cycles(); ++t)
      max_diff = std::max(max_diff,
                          std::fabs(loaded.truth(i, t) - sliced.truth(i, t)));
  EXPECT_EQ(max_diff, 0.0);
  for (std::size_t i = 0; i < sliced.num_cells(); ++i) {
    EXPECT_EQ(loaded.coords()[i].x, sliced.coords()[i].x);
    EXPECT_EQ(loaded.coords()[i].y, sliced.coords()[i].y);
  }
}

TEST(TaskIo, RoundTripClassificationTask) {
  const auto ds = make_uair_like(5);
  const auto sliced = ds.pm25.slice_cycles(0, 6);
  std::stringstream ss;
  save_task_csv(ss, sliced);
  const auto loaded = load_task_csv(ss);
  EXPECT_TRUE(loaded.metric().is_classification());
  EXPECT_EQ(loaded.metric().categorize(75.0),
            sliced.metric().categorize(75.0));
  EXPECT_EQ(loaded.metric().categorize(350.0),
            sliced.metric().categorize(350.0));
}

TEST(TaskIo, RoundTripCustomClassificationBounds) {
  // Bounds other than the AQI defaults must survive the round trip: 15 is
  // in category 1 under {10, 20} but would be category 0 under the AQI
  // bounds.
  const auto toy = testing::make_toy_task(3, 4);
  const mcs::SensingTask task("custom", toy.ground_truth(), toy.coords(),
                              mcs::ErrorMetric::classification({10.0, 20.0}));
  std::stringstream ss;
  save_task_csv(ss, task);
  const auto loaded = load_task_csv(ss);
  ASSERT_TRUE(loaded.metric().is_classification());
  EXPECT_EQ(loaded.metric().category_bounds(),
            (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(loaded.metric().categorize(15.0), 1);
}

TEST(TaskIo, MalformedCsvThrows) {
  std::stringstream ss("garbage,file\nwithout,structure\n");
  EXPECT_THROW(load_task_csv(ss), CheckError);
}

}  // namespace
}  // namespace drcell::data
