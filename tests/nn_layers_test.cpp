#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/gradient_check.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "test_helpers.h"

namespace drcell::nn {
namespace {

using testing::make_matrix;
using testing::mse_loss;

TEST(Activations, SigmoidValuesAndStability) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-12);
  // Extreme inputs must not overflow.
  EXPECT_NEAR(sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-1000.0), 0.0, 1e-12);
}

TEST(Activations, DerivativeIdentities) {
  const double y = sigmoid(0.7);
  EXPECT_NEAR(dsigmoid_from_output(y), y * (1 - y), 1e-15);
  const double t = std::tanh(0.7);
  EXPECT_NEAR(dtanh_from_output(t), 1 - t * t, 1e-15);
}

TEST(ReLULayer, ForwardClampsNegatives) {
  ReLU relu;
  Matrix x = make_matrix({{-1.0, 0.0, 2.0}});
  const Matrix y = relu.forward(x);
  EXPECT_EQ(y(0, 0), 0.0);
  EXPECT_EQ(y(0, 1), 0.0);
  EXPECT_EQ(y(0, 2), 2.0);
}

TEST(ReLULayer, BackwardGatesGradient) {
  ReLU relu;
  Matrix x = make_matrix({{-1.0, 3.0}});
  relu.forward(x);
  Matrix g = make_matrix({{5.0, 5.0}});
  const Matrix dx = relu.backward(g);
  EXPECT_EQ(dx(0, 0), 0.0);
  EXPECT_EQ(dx(0, 1), 5.0);
}

TEST(Parameter, GenerationCountsWriteAccessesOnly) {
  Parameter p(2, 3);
  EXPECT_EQ(p.generation(), 0u);
  EXPECT_EQ(p.value().rows(), 2u);  // a read
  p.zero_grad();                    // the gradient is not the value
  EXPECT_EQ(p.generation(), 0u);
  p.mutable_value()(1, 2) = 4.0;
  EXPECT_EQ(p.generation(), 1u);
  EXPECT_EQ(p.value()(1, 2), 4.0);
  // check_gradient perturbs the value in place: one write access.
  p.zero_grad();
  check_gradient(p, [&] { return p.value()(1, 2); });
  EXPECT_EQ(p.generation(), 2u);
  EXPECT_EQ(p.value()(1, 2), 4.0);  // restored
}

TEST(DenseLayer, ForwardMatchesManualComputation) {
  Rng rng(1);
  Dense d(2, 3, rng);
  d.weight().mutable_value() = make_matrix({{1, 2, 3}, {4, 5, 6}});
  d.bias().mutable_value() = make_matrix({{0.5, -0.5, 1.0}});
  Matrix x = make_matrix({{1.0, 2.0}});
  const Matrix y = d.forward(x);
  EXPECT_NEAR(y(0, 0), 1 * 1 + 2 * 4 + 0.5, 1e-12);
  EXPECT_NEAR(y(0, 1), 1 * 2 + 2 * 5 - 0.5, 1e-12);
  EXPECT_NEAR(y(0, 2), 1 * 3 + 2 * 6 + 1.0, 1e-12);
}

TEST(DenseLayer, InputShapeMismatchThrows) {
  Rng rng(1);
  Dense d(3, 2, rng);
  EXPECT_THROW(d.forward(Matrix(1, 4)), CheckError);
}

TEST(DenseLayer, GradientMatchesFiniteDifferences) {
  Rng rng(2);
  Dense d(4, 3, rng);
  Matrix x(5, 4);
  for (double& v : x.data()) v = rng.normal();
  Matrix target(5, 3);
  for (double& v : target.data()) v = rng.normal();

  auto loss_fn = [&] { return mse_loss(d.forward(x), target).value; };
  // One forward/backward to populate gradients.
  for (auto* p : d.parameters()) p->zero_grad();
  const auto l = mse_loss(d.forward(x), target);
  d.backward(l.grad);

  for (auto* p : d.parameters()) {
    const auto r = check_gradient(*p, loss_fn);
    EXPECT_TRUE(r.passed(1e-5)) << "max_rel=" << r.max_rel_diff;
  }
}

TEST(DenseLayer, InputGradientMatchesFiniteDifferences) {
  Rng rng(3);
  Dense d(3, 2, rng);
  Matrix x = make_matrix({{0.5, -1.0, 2.0}});
  Matrix target = make_matrix({{1.0, 0.0}});
  for (auto* p : d.parameters()) p->zero_grad();
  const auto l = mse_loss(d.forward(x), target);
  const Matrix dx = d.backward(l.grad);

  const double eps = 1e-6;
  for (std::size_t j = 0; j < 3; ++j) {
    const double saved = x(0, j);
    x(0, j) = saved + eps;
    const double up = mse_loss(d.forward(x), target).value;
    x(0, j) = saved - eps;
    const double down = mse_loss(d.forward(x), target).value;
    x(0, j) = saved;
    EXPECT_NEAR(dx(0, j), (up - down) / (2 * eps), 1e-5);
  }
}

TEST(Sequential, ForwardComposesLayers) {
  Rng rng(4);
  Sequential net;
  net.emplace<Dense>(2, 2, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(2, 1, rng);
  const Matrix y = net.forward(make_matrix({{1.0, -1.0}}));
  EXPECT_EQ(y.rows(), 1u);
  EXPECT_EQ(y.cols(), 1u);
}

TEST(Sequential, ParameterCount) {
  Rng rng(5);
  Sequential net;
  net.emplace<Dense>(3, 4, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(4, 2, rng);
  EXPECT_EQ(net.parameters().size(), 4u);  // two weights + two biases
}

TEST(Sequential, EmptyForwardThrows) {
  Sequential net;
  EXPECT_THROW(net.forward(Matrix(1, 1)), CheckError);
}

TEST(Sequential, GradientThroughMlpMatchesFiniteDifferences) {
  Rng rng(6);
  Sequential net;
  net.emplace<Dense>(3, 5, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(5, 2, rng);
  Matrix x(4, 3);
  for (double& v : x.data()) v = rng.normal();
  Matrix target(4, 2);
  for (double& v : target.data()) v = rng.normal();

  auto loss_fn = [&] { return mse_loss(net.forward(x), target).value; };
  for (auto* p : net.parameters()) p->zero_grad();
  const auto l = mse_loss(net.forward(x), target);
  net.backward(l.grad);
  for (auto* p : net.parameters()) {
    const auto r = check_gradient(*p, loss_fn);
    EXPECT_TRUE(r.passed(1e-5)) << "max_rel=" << r.max_rel_diff;
  }
}

TEST(Init, XavierBoundsRespectFanInOut) {
  Rng rng(7);
  Matrix w(100, 50);
  xavier_uniform(w, 100, 50, rng);
  const double bound = std::sqrt(6.0 / 150.0);
  EXPECT_LE(w.max_abs(), bound);
  EXPECT_GT(w.max_abs(), bound * 0.5);  // actually fills the range
}

TEST(Loss, HuberQuadraticAndLinearRegions) {
  Matrix pred = make_matrix({{0.5, 3.0}});
  Matrix target = make_matrix({{0.0, 0.0}});
  const auto l = masked_huber_loss(pred, target, Matrix(1, 2, 1.0), 1.0);
  // element 0: quadratic 0.5*0.25; element 1: linear 1*(3-0.5).
  EXPECT_NEAR(l.value, (0.125 + 2.5) / 2.0, 1e-12);
  EXPECT_NEAR(l.grad(0, 0), 0.5 / 2.0, 1e-12);
  EXPECT_NEAR(l.grad(0, 1), 1.0 / 2.0, 1e-12);  // clipped to delta
}

TEST(Loss, MaskedVariantsIgnoreMaskedElements) {
  Matrix pred = make_matrix({{1.0, 100.0}});
  Matrix target = make_matrix({{0.0, 0.0}});
  Matrix mask = make_matrix({{1.0, 0.0}});
  const auto h = masked_huber_loss(pred, target, mask, 1.0);
  EXPECT_NEAR(h.value, 0.5, 1e-12);
  EXPECT_EQ(h.grad(0, 1), 0.0);
}

TEST(Loss, AllMaskedThrows) {
  Matrix pred(1, 2), target(1, 2), mask(1, 2);
  EXPECT_THROW(masked_huber_loss(pred, target, mask), CheckError);
}

TEST(Loss, ShapeMismatchThrows) {
  EXPECT_THROW(masked_huber_loss(Matrix(1, 2), Matrix(2, 1), Matrix(1, 2)),
               CheckError);
}

}  // namespace
}  // namespace drcell::nn
