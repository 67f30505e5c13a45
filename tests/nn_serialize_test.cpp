#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/serialize.h"
#include "rl/spatial_drqn_qnetwork.h"
#include "test_helpers.h"

namespace drcell::nn {
namespace {

using testing::make_matrix;

TEST(Serialize, MatrixRoundTrip) {
  Matrix a = make_matrix({{1.5, -2.0}, {0.0, 3.25}});
  Matrix b(1, 3, 7.0);
  std::stringstream ss;
  save_matrices(ss, {&a, &b});
  const auto loaded = load_matrices(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], a);
  EXPECT_EQ(loaded[1], b);
}

TEST(Serialize, EmptyListRoundTrip) {
  std::stringstream ss;
  save_matrices(ss, {});
  EXPECT_TRUE(load_matrices(ss).empty());
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream ss("not a weight stream at all");
  EXPECT_THROW(load_matrices(ss), SerializationError);
}

TEST(Serialize, TruncatedStreamThrows) {
  Matrix a(4, 4, 1.0);
  std::stringstream ss;
  save_matrices(ss, {&a});
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(load_matrices(truncated), SerializationError);
}

TEST(Serialize, EmptyStreamThrows) {
  std::stringstream ss;
  EXPECT_THROW(load_matrices(ss), SerializationError);
}

TEST(Serialize, ParameterRoundTripRestoresValues) {
  Rng rng(1);
  Dense original(3, 4, rng);
  std::stringstream ss;
  save_parameters(ss, original.parameters());

  Rng rng2(99);
  Dense restored(3, 4, rng2);
  ASSERT_NE(restored.weight().value(), original.weight().value());
  const std::uint64_t saved_gen = original.weight().generation();
  const std::uint64_t weight_gen = restored.weight().generation();
  const std::uint64_t bias_gen = restored.bias().generation();
  load_parameters(ss, restored.parameters());
  EXPECT_EQ(restored.weight().value(), original.weight().value());
  EXPECT_EQ(restored.bias().value(), original.bias().value());
  // Saving reads; loading writes every tensor once.
  EXPECT_EQ(original.weight().generation(), saved_gen);
  EXPECT_EQ(restored.weight().generation(), weight_gen + 1);
  EXPECT_EQ(restored.bias().generation(), bias_gen + 1);
}

TEST(Serialize, ParameterCountMismatchThrows) {
  Rng rng(2);
  Dense d(2, 2, rng);
  std::stringstream ss;
  save_parameters(ss, d.parameters());
  Lstm lstm(2, 2, rng);  // 3 parameters vs Dense's 2
  EXPECT_THROW(load_parameters(ss, lstm.parameters()), SerializationError);
}

TEST(Serialize, ShapeMismatchThrows) {
  Rng rng(3);
  Dense small(2, 2, rng);
  std::stringstream ss;
  save_parameters(ss, small.parameters());
  Dense big(3, 3, rng);
  EXPECT_THROW(load_parameters(ss, big.parameters()), SerializationError);
}

TEST(Serialize, LstmRoundTripPreservesBehaviour) {
  Rng rng(4);
  Lstm original(3, 5, rng);
  std::stringstream ss;
  save_parameters(ss, original.parameters());

  Rng rng2(5);
  Lstm restored(3, 5, rng2);
  load_parameters(ss, restored.parameters());

  Rng data_rng(6);
  std::vector<Matrix> seq(3, Matrix(2, 3));
  for (auto& m : seq)
    for (double& v : m.data()) v = data_rng.normal();
  EXPECT_EQ(original.forward(seq), restored.forward(seq));
}

TEST(Serialize, CopyParametersTransfersValues) {
  Rng rng(7);
  Dense a(2, 3, rng), b(2, 3, rng);
  ASSERT_NE(a.weight().value(), b.weight().value());
  const std::uint64_t source_gen = a.weight().generation();
  const std::uint64_t dest_gen = b.weight().generation();
  copy_parameters(a.parameters(), b.parameters());
  EXPECT_EQ(a.weight().value(), b.weight().value());
  EXPECT_EQ(a.weight().generation(), source_gen);
  EXPECT_EQ(b.weight().generation(), dest_gen + 1);
  // Independent storage: mutating the source must not affect the copy.
  a.weight().mutable_value()(0, 0) += 1.0;
  EXPECT_NE(a.weight().value(), b.weight().value());
}

TEST(Serialize, CopyParametersShapeMismatchThrows) {
  Rng rng(8);
  Dense a(2, 3, rng), b(3, 2, rng);
  EXPECT_THROW(copy_parameters(a.parameters(), b.parameters()), CheckError);
}

std::vector<Matrix> spatial_probe_batch(const rl::SpatialDrqnQNetwork& net,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> steps(net.history_steps(),
                            Matrix(2, net.num_actions()));
  for (auto& step : steps)
    for (double& v : step.data()) v = rng.uniform() < 0.2 ? 1.0 : 0.0;
  return steps;
}

TEST(Serialize, SpatialDrqnRoundTripPreservesQValues) {
  Rng rng(20);
  rl::SpatialDrqnQNetwork original(4, 3, 2, 8, 1, 0, rng);
  std::stringstream ss;
  save_parameters(ss, original.parameters());

  Rng rng2(21);
  rl::SpatialDrqnQNetwork restored(4, 3, 2, 8, 1, 0, rng2);
  const auto probe = spatial_probe_batch(original, 22);
  ASSERT_NE(original.forward_batch(probe), restored.forward_batch(probe));
  load_parameters(ss, restored.parameters());
  EXPECT_EQ(original.forward_batch(probe), restored.forward_batch(probe));
}

TEST(Serialize, SpatialDrqnTruncatedStreamThrows) {
  Rng rng(23);
  rl::SpatialDrqnQNetwork net(4, 3, 2, 8, 1, 4, rng);
  std::stringstream ss;
  save_parameters(ss, net.parameters());
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(load_parameters(truncated, net.parameters()),
               SerializationError);
}

TEST(Serialize, SpatialDrqnShapeMismatchThrows) {
  Rng rng(24);
  rl::SpatialDrqnQNetwork small(4, 3, 2, 8, 1, 0, rng);
  std::stringstream ss;
  save_parameters(ss, small.parameters());
  // Same grid and parameter count, but a wider LSTM: every weight shape
  // disagrees and the load must refuse rather than scribble.
  rl::SpatialDrqnQNetwork wide(4, 3, 2, 12, 1, 0, rng);
  ASSERT_EQ(wide.parameters().size(), small.parameters().size());
  EXPECT_THROW(load_parameters(ss, wide.parameters()), SerializationError);
}

}  // namespace
}  // namespace drcell::nn
