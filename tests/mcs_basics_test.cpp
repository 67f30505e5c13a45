#include <gtest/gtest.h>

#include "mcs/error_metric.h"
#include "mcs/selection_matrix.h"
#include "mcs/sensing_task.h"
#include "mcs/state_encoder.h"
#include "test_helpers.h"

namespace drcell::mcs {
namespace {

TEST(ErrorMetric, MaeOverIndices) {
  const auto metric = ErrorMetric::mae();
  const std::vector<double> truth{1.0, 2.0, 3.0};
  const std::vector<double> est{1.5, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(metric.error(truth, est, {0, 2}), (0.5 + 2.0) / 2.0);
  EXPECT_DOUBLE_EQ(metric.error(truth, est, {1}), 0.0);
}

TEST(ErrorMetric, EmptyIndicesIsPerfect) {
  const auto metric = ErrorMetric::mae();
  EXPECT_EQ(metric.error({{1.0}}, {{9.0}}, {}), 0.0);
}

TEST(ErrorMetric, RmseOverIndices) {
  const auto metric = ErrorMetric::rmse();
  const std::vector<double> truth{0.0, 0.0};
  const std::vector<double> est{3.0, 4.0};
  EXPECT_DOUBLE_EQ(metric.error(truth, est, {0, 1}),
                   std::sqrt((9.0 + 16.0) / 2.0));
}

TEST(ErrorMetric, AqiCategorization) {
  const auto metric = ErrorMetric::aqi_classification();
  EXPECT_EQ(metric.categorize(0.0), 0);
  EXPECT_EQ(metric.categorize(50.0), 0);    // Good
  EXPECT_EQ(metric.categorize(50.1), 1);    // Moderate
  EXPECT_EQ(metric.categorize(150.0), 2);   // Unhealthy for sensitive
  EXPECT_EQ(metric.categorize(199.0), 3);   // Unhealthy
  EXPECT_EQ(metric.categorize(250.0), 4);   // Very unhealthy
  EXPECT_EQ(metric.categorize(301.0), 5);   // Hazardous
}

TEST(ErrorMetric, ClassificationErrorCountsMismatches) {
  const auto metric = ErrorMetric::aqi_classification();
  const std::vector<double> truth{40.0, 120.0, 250.0, 400.0};
  const std::vector<double> est{45.0, 90.0, 260.0, 100.0};
  // categories: truth {0,2,4,5}, est {0,1,4,1} -> 2 of 4 mismatch.
  EXPECT_DOUBLE_EQ(metric.error(truth, est, {0, 1, 2, 3}), 0.5);
}

TEST(ErrorMetric, PointwiseError) {
  const auto mae = ErrorMetric::mae();
  EXPECT_DOUBLE_EQ(mae.pointwise_error(3.0, 1.5), 1.5);
  const auto cls = ErrorMetric::aqi_classification();
  EXPECT_EQ(cls.pointwise_error(40.0, 45.0), 0.0);
  EXPECT_EQ(cls.pointwise_error(40.0, 60.0), 1.0);
}

TEST(ErrorMetric, CategorizeOnContinuousMetricThrows) {
  EXPECT_THROW(ErrorMetric::mae().categorize(1.0), CheckError);
}

TEST(ErrorMetric, UnsortedBoundsThrow) {
  EXPECT_THROW(ErrorMetric::classification({100.0, 50.0}), CheckError);
}

TEST(ErrorMetric, Names) {
  EXPECT_EQ(ErrorMetric::mae().name(), "mean-absolute-error");
  EXPECT_EQ(ErrorMetric::aqi_classification().name(), "classification-error");
  EXPECT_TRUE(ErrorMetric::aqi_classification().is_classification());
  EXPECT_FALSE(ErrorMetric::rmse().is_classification());
}

TEST(SensingTask, BasicAccessors) {
  const auto task = testing::make_toy_task(6, 24);
  EXPECT_EQ(task.num_cells(), 6u);
  EXPECT_EQ(task.num_cycles(), 24u);
  EXPECT_EQ(task.coords().size(), 6u);
  EXPECT_EQ(task.cycle_hours(), 1.0);
  EXPECT_EQ(task.name(), "toy");
}

TEST(SensingTask, SliceCyclesExtractsRange) {
  const auto task = testing::make_toy_task(4, 20);
  const auto slice = task.slice_cycles(5, 10);
  EXPECT_EQ(slice.num_cycles(), 5u);
  EXPECT_EQ(slice.num_cells(), 4u);
  for (std::size_t c = 0; c < 4; ++c)
    for (std::size_t t = 0; t < 5; ++t)
      EXPECT_EQ(slice.truth(c, t), task.truth(c, t + 5));
}

TEST(SensingTask, InvalidSliceThrows) {
  const auto task = testing::make_toy_task(4, 20);
  EXPECT_THROW(task.slice_cycles(10, 10), CheckError);
  EXPECT_THROW(task.slice_cycles(0, 21), CheckError);
}

TEST(SensingTask, RejectsCoordinateMismatch) {
  EXPECT_THROW(SensingTask("bad", Matrix(3, 2), {{0, 0}},
                           ErrorMetric::mae()),
               CheckError);
}

TEST(SensingTask, RejectsNonFiniteData) {
  Matrix d(2, 2);
  d(0, 0) = std::nan("");
  EXPECT_THROW(
      SensingTask("bad", std::move(d), {{0, 0}, {1, 1}}, ErrorMetric::mae()),
      CheckError);
}

TEST(SelectionMatrix, MarkAndQuery) {
  SelectionMatrix s(4, 3);
  EXPECT_EQ(testing::total_selected(s), 0u);
  s.mark(1, 0);
  s.mark(3, 0);
  s.mark(1, 2);
  EXPECT_TRUE(s.selected(1, 0));
  EXPECT_FALSE(s.selected(2, 0));
  EXPECT_EQ(testing::total_selected(s), 3u);
  EXPECT_EQ(s.selected_cells_in_cycle(0), (std::vector<std::size_t>{1, 3}));
}

TEST(SelectionMatrix, DoubleMarkThrows) {
  SelectionMatrix s(2, 2);
  s.mark(0, 0);
  EXPECT_THROW(s.mark(0, 0), CheckError);
}

TEST(SelectionMatrix, ResetClearsEverything) {
  SelectionMatrix s(2, 2);
  s.mark(0, 0);
  s.reset();
  EXPECT_EQ(testing::total_selected(s), 0u);
  EXPECT_FALSE(s.selected(0, 0));
  s.mark(0, 0);  // can re-mark after reset
}

TEST(StateEncoder, EncodesRecentWindowOldestFirst) {
  SelectionMatrix s(3, 5);
  s.mark(0, 1);  // older cycle
  s.mark(2, 2);  // current cycle
  StateEncoder enc(3, 2);
  const auto state = enc.encode(s, 2);
  ASSERT_EQ(state.size(), 6u);
  // Slice 0 = cycle 1, slice 1 = cycle 2.
  EXPECT_EQ(state, (std::vector<double>{1, 0, 0, 0, 0, 1}));
}

TEST(StateEncoder, ZeroPadsBeforeCampaignStart) {
  SelectionMatrix s(2, 5);
  s.mark(1, 0);
  StateEncoder enc(2, 3);
  const auto state = enc.encode(s, 0);
  // Two zero-padded slices then cycle 0.
  EXPECT_EQ(state, (std::vector<double>{0, 0, 0, 0, 0, 1}));
}

/// k empty [batch x cells] sparse steps.
std::vector<SparseRowMatrix> empty_steps(const StateEncoder& enc,
                                         std::size_t batch) {
  return std::vector<SparseRowMatrix>(
      enc.history_cycles(), SparseRowMatrix(batch, enc.cells()));
}

TEST(StateEncoder, ToSequenceSplitsSlices) {
  StateEncoder enc(2, 2);
  const std::vector<double> flat{1, 0, 0, 1};
  auto seq = empty_steps(enc, 1);
  enc.to_sequence_row(flat, 0, seq);
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(testing::to_dense(seq[0]), testing::make_matrix({{1, 0}}));
  EXPECT_EQ(testing::to_dense(seq[1]), testing::make_matrix({{0, 1}}));
  // Zeros are not stored: the steps are the sparse selection input.
  EXPECT_EQ(seq[0].nonzeros(), 1u);
  EXPECT_EQ(seq[1].nonzeros(), 1u);
}

TEST(StateEncoder, BatchConversionStacksRows) {
  StateEncoder enc(2, 2);
  const std::vector<double> a{1, 0, 0, 1};
  const std::vector<double> b{0, 1, 1, 0};
  auto seq = empty_steps(enc, 2);
  enc.to_sequence_row(a, 0, seq);
  enc.to_sequence_row(b, 1, seq);
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(testing::to_dense(seq[0]), testing::make_matrix({{1, 0}, {0, 1}}));
  EXPECT_EQ(testing::to_dense(seq[1]), testing::make_matrix({{0, 1}, {1, 0}}));
  // The one-index form of the same states fills the same steps.
  auto from_ones = empty_steps(enc, 2);
  enc.ones_to_sequence_row(std::vector<std::uint32_t>{0, 3}, 0, from_ones);
  enc.ones_to_sequence_row(std::vector<std::uint32_t>{1, 2}, 1, from_ones);
  for (std::size_t j = 0; j < 2; ++j)
    EXPECT_EQ(testing::to_dense(from_ones[j]), testing::to_dense(seq[j]))
        << "step " << j;
}

TEST(StateEncoder, SizeMismatchThrows) {
  StateEncoder enc(2, 2);
  const std::vector<double> bad{1, 0, 0};
  auto seq = empty_steps(enc, 1);
  EXPECT_THROW(enc.to_sequence_row(bad, 0, seq), CheckError);
  auto short_seq = empty_steps(StateEncoder(2, 1), 1);
  EXPECT_THROW(enc.to_sequence_row(std::vector<double>(4, 0.0), 0, short_seq),
               CheckError);
}

TEST(StateEncoder, StateSize) {
  StateEncoder enc(7, 3);
  EXPECT_EQ(enc.state_size(), 21u);
  EXPECT_EQ(enc.cells(), 7u);
  EXPECT_EQ(enc.history_cycles(), 3u);
}

}  // namespace
}  // namespace drcell::mcs
