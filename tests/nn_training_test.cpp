#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace drcell::nn {
namespace {

using testing::make_matrix;
using testing::mse_loss;

/// Quadratic bowl: minimise ||p - target||² for a single 1x2 parameter.
struct Bowl {
  Parameter p{1, 2};
  Matrix target = make_matrix({{3.0, -2.0}});

  double loss_and_grad() {
    p.zero_grad();
    double l = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
      const double d = p.value()(0, i) - target(0, i);
      l += d * d;
      p.grad(0, i) = 2.0 * d;
    }
    return l;
  }
};

TEST(Optimizer, RequiresParameters) {
  EXPECT_THROW(Adam({}, 0.1), CheckError);
  EXPECT_THROW(Adam({nullptr}, 0.1), CheckError);
}

TEST(Adam, ConvergesOnQuadratic) {
  Bowl bowl;
  Adam opt({&bowl.p}, 0.1);
  for (int i = 0; i < 500; ++i) {
    bowl.loss_and_grad();
    opt.step();
  }
  EXPECT_NEAR(bowl.p.value()(0, 0), 3.0, 1e-4);
  EXPECT_NEAR(bowl.p.value()(0, 1), -2.0, 1e-4);
}

TEST(Adam, StepBumpsEveryGenerationOnceAtAnyWorkerCount) {
  // One write access per tensor per step, taken in serial code whether or
  // not the update itself runs on pool lanes.
  for (const std::size_t workers : {0u, 3u}) {
    util::ThreadPool pool(workers);
    Rng rng(5);
    Dense d(3, 4, rng);
    const auto params = d.parameters();
    Adam opt(params, 0.01);
    for (int step = 1; step <= 2; ++step) {
      std::vector<std::uint64_t> before;
      for (const Parameter* p : params) before.push_back(p->generation());
      opt.zero_grad();
      opt.step(&pool);
      for (std::size_t i = 0; i < params.size(); ++i)
        EXPECT_EQ(params[i]->generation(), before[i] + 1)
            << "workers " << workers << " step " << step << " param " << i;
    }
  }
}

TEST(Adam, FirstStepIsBiasCorrectlySized) {
  // With bias correction the very first Adam update has magnitude ≈ lr.
  Bowl bowl;
  Adam opt({&bowl.p}, 0.1);
  const double before = bowl.p.value()(0, 0);
  bowl.loss_and_grad();
  opt.step();
  EXPECT_NEAR(std::fabs(bowl.p.value()(0, 0) - before), 0.1, 1e-6);
}

TEST(Optimizer, ZeroGradClearsGradients) {
  Bowl bowl;
  Adam opt({&bowl.p}, 0.1);
  bowl.loss_and_grad();
  EXPECT_NE(bowl.p.grad.max_abs(), 0.0);
  opt.zero_grad();
  EXPECT_EQ(bowl.p.grad.max_abs(), 0.0);
}

TEST(Optimizer, AdamRejectsBadHyperparameters) {
  Parameter p(1, 1);
  EXPECT_THROW(Adam({&p}, 0.0), CheckError);
  EXPECT_THROW(Adam({&p}, 0.1, 1.0), CheckError);
  EXPECT_THROW(Adam({&p}, 0.1, 0.9, -0.1), CheckError);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  Parameter p(1, 2);
  p.grad(0, 0) = 0.3;
  p.grad(0, 1) = 0.4;  // norm 0.5
  const double norm = clip_grad_norm({&p}, 1.0);
  EXPECT_NEAR(norm, 0.5, 1e-12);
  EXPECT_NEAR(p.grad(0, 0), 0.3, 1e-12);
}

TEST(ClipGradNorm, ScalesLargeGradients) {
  Parameter p(1, 2);
  p.grad(0, 0) = 3.0;
  p.grad(0, 1) = 4.0;  // norm 5
  const double norm = clip_grad_norm({&p}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-12);
  EXPECT_NEAR(p.grad(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(p.grad(0, 1), 0.8, 1e-12);
}

TEST(ClipGradNorm, GlobalAcrossParameters) {
  Parameter a(1, 1), b(1, 1);
  a.grad(0, 0) = 3.0;
  b.grad(0, 0) = 4.0;
  clip_grad_norm({&a, &b}, 1.0);
  const double total = std::sqrt(a.grad(0, 0) * a.grad(0, 0) +
                                 b.grad(0, 0) * b.grad(0, 0));
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Training, MlpFitsXor) {
  // End-to-end: a 2-layer MLP + Adam can fit XOR — exercises the whole
  // forward/backward/step loop on a non-linearly-separable problem.
  Rng rng(21);
  Sequential net;
  net.emplace<Dense>(2, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(8, 1, rng);
  Adam opt(net.parameters(), 0.03);

  Matrix x = make_matrix({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  Matrix y = make_matrix({{0}, {1}, {1}, {0}});
  double loss = 0.0;
  for (int i = 0; i < 2000; ++i) {
    opt.zero_grad();
    const auto l = mse_loss(net.forward(x), y);
    net.backward(l.grad);
    opt.step();
    loss = l.value;
  }
  EXPECT_LT(loss, 0.01);
  const Matrix pred = net.forward(x);
  EXPECT_LT(std::fabs(pred(0, 0) - 0.0), 0.2);
  EXPECT_LT(std::fabs(pred(1, 0) - 1.0), 0.2);
  EXPECT_LT(std::fabs(pred(2, 0) - 1.0), 0.2);
  EXPECT_LT(std::fabs(pred(3, 0) - 0.0), 0.2);
}

TEST(Training, HuberIsRobustToOutlierTargets) {
  // With one absurd target, Huber-trained weights should move less than
  // MSE-trained weights. Adam's step is about lr whatever the gradient's
  // scale, so the gap comes from direction alone: under Huber the growing
  // inlier residuals soon offset the clipped outlier pull and slow the
  // weight, while under MSE the outlier dominates every step.
  auto train = [](bool huber) {
    Rng rng(22);
    Dense d(1, 1, rng);
    d.weight().mutable_value()(0, 0) = 1.0;
    d.bias().mutable_value()(0, 0) = 0.0;
    Adam opt(d.parameters(), 0.01);
    Matrix x = make_matrix({{1.0}, {2.0}, {3.0}});
    Matrix y = make_matrix({{1.0}, {2.0}, {1000.0}});  // outlier
    for (int i = 0; i < 300; ++i) {
      opt.zero_grad();
      const Matrix pred = d.forward(x);
      const auto l = huber ? masked_huber_loss(pred, y, Matrix(3, 1, 1.0))
                           : mse_loss(pred, y);
      d.backward(l.grad);
      opt.step();
    }
    return std::fabs(d.weight().value()(0, 0) - 1.0);
  };
  EXPECT_LT(train(true), train(false));
}

}  // namespace
}  // namespace drcell::nn
