#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "linalg/backend.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/gradient_check.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "test_helpers.h"

namespace drcell::nn {
namespace {

using testing::mse_loss;

std::vector<Matrix> random_sequence(std::size_t steps, std::size_t batch,
                                    std::size_t features, Rng& rng) {
  std::vector<Matrix> seq(steps, Matrix(batch, features));
  for (auto& m : seq)
    for (double& v : m.data()) v = rng.normal();
  return seq;
}

TEST(Lstm, OutputShape) {
  Rng rng(1);
  Lstm lstm(3, 5, rng);
  const auto seq = random_sequence(4, 2, 3, rng);
  const Matrix h = lstm.forward(seq);
  EXPECT_EQ(h.rows(), 2u);
  EXPECT_EQ(h.cols(), 5u);
}

TEST(Lstm, EmptySequenceThrows) {
  Rng rng(1);
  Lstm lstm(3, 5, rng);
  EXPECT_THROW(lstm.forward(std::vector<Matrix>{}), CheckError);
}

TEST(Lstm, InconsistentStepShapeThrows) {
  Rng rng(1);
  Lstm lstm(3, 5, rng);
  std::vector<Matrix> seq{Matrix(2, 3), Matrix(2, 4)};
  EXPECT_THROW(lstm.forward(seq), CheckError);
}

TEST(Lstm, ForgetGateBiasInitialisedToOne) {
  Rng rng(2);
  Lstm lstm(2, 3, rng);
  auto params = lstm.parameters();
  const Matrix& b = params[2]->value();  // bias is third
  for (std::size_t j = 3; j < 6; ++j) EXPECT_EQ(b(0, j), 1.0);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(b(0, j), 0.0);
}

TEST(Lstm, DeterministicForward) {
  Rng rng_a(3), rng_b(3);
  Lstm a(3, 4, rng_a), b(3, 4, rng_b);
  Rng data_rng(4);
  const auto seq = random_sequence(3, 2, 3, data_rng);
  EXPECT_EQ(a.forward(seq), b.forward(seq));
}

TEST(Lstm, HiddenStaysBounded) {
  // |h| <= 1 because h = sigmoid * tanh.
  Rng rng(5);
  Lstm lstm(2, 6, rng);
  Rng data_rng(6);
  auto seq = random_sequence(20, 1, 2, data_rng);
  for (auto& m : seq) m *= 100.0;  // extreme inputs
  const Matrix h = lstm.forward(seq);
  EXPECT_LE(h.max_abs(), 1.0);
  EXPECT_FALSE(h.has_non_finite());
}

TEST(Lstm, RespondsToInputHistory) {
  // Different first steps must yield different final hidden states
  // (the recurrent memory actually carries information).
  Rng rng(7);
  Lstm lstm(2, 4, rng);
  Rng data_rng(8);
  auto seq1 = random_sequence(3, 1, 2, data_rng);
  auto seq2 = seq1;
  seq2.front()(0, 0) += 1.0;
  const Matrix h1 = lstm.forward(seq1);
  const Matrix h2 = lstm.forward(seq2);
  EXPECT_GT((h1 - h2).max_abs(), 1e-6);
}

TEST(LstmGateKernel, FusedGradientCheckAtBatch1And32) {
  // The fused fastmath gate kernel's analytic gradients against central
  // differences at the per-sample (B=1) and minibatch (B=32) widths the
  // trainer runs.
  for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
    Rng rng(41);
    Lstm lstm(3, 5, rng);
    Rng data_rng(42 + batch);
    const auto seq = random_sequence(3, batch, 3, data_rng);
    Matrix target(batch, 5);
    for (double& v : target.data()) v = data_rng.normal();

    auto loss_fn = [&] { return mse_loss(lstm.forward(seq), target).value; };
    for (auto* p : lstm.parameters()) p->zero_grad();
    const auto l = mse_loss(lstm.forward(seq), target);
    lstm.backward(l.grad);
    for (auto* p : lstm.parameters()) {
      const auto r = check_gradient(*p, loss_fn, 1e-6);
      EXPECT_TRUE(r.passed(1e-4)) << "batch=" << batch
                                  << " max_rel=" << r.max_rel_diff;
    }
  }
}

/// Selects a compute backend for one scope, then restores the previous one
/// (the suite also runs whole under DRCELL_BACKEND=reference).
class ScopedBackend {
 public:
  explicit ScopedBackend(const char* name)
      : prev_(BackendRegistry::active().name()) {
    BackendRegistry::set_active(name);
  }
  ~ScopedBackend() { BackendRegistry::set_active(prev_); }

 private:
  std::string prev_;
};

TEST(LstmGateKernel, FusedMatchesStdReferenceWithinFastmathTolerance) {
  // The native backend's fused fastmath gates vs the reference backend's
  // std:: gates, B ∈ {1, 32}: hidden states and accumulated parameter
  // gradients agree within the fastmath divergence bound (per-activation
  // ≤1e-12 relative; a few steps of BPTT compound it only modestly). This
  // is the numeric-divergence contract — the two kernels are deliberately
  // NOT bit-identical.
  for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
    Rng rng_a(51), rng_b(51);
    Lstm fused(4, 6, rng_a);
    Lstm reference(4, 6, rng_b);

    Rng data_rng(52 + batch);
    auto seq = random_sequence(4, batch, 4, data_rng);
    for (auto& m : seq) m *= 3.0;  // push some gates toward saturation
    Matrix grad_h(batch, 6);
    for (double& v : grad_h.data()) v = data_rng.normal();

    const auto run = [&](const char* backend, Lstm& lstm) {
      ScopedBackend scope(backend);
      for (auto* p : lstm.parameters()) p->zero_grad();
      Matrix h = lstm.forward(seq);
      lstm.backward(grad_h);
      return h;
    };
    const Matrix h_fused = run("native", fused);
    const Matrix h_ref = run("reference", reference);
    for (std::size_t i = 0; i < h_fused.data().size(); ++i)
      EXPECT_NEAR(h_fused.data()[i], h_ref.data()[i], 1e-12)
          << "batch=" << batch << " i=" << i;

    const auto pa = fused.parameters();
    const auto pb = reference.parameters();
    for (std::size_t p = 0; p < pa.size(); ++p)
      for (std::size_t i = 0; i < pa[p]->grad.data().size(); ++i)
        EXPECT_NEAR(pa[p]->grad.data()[i], pb[p]->grad.data()[i], 1e-10)
            << "batch=" << batch << " param=" << p;
  }
}

TEST(Lstm, GradientWrtParametersMatchesFiniteDifferences) {
  Rng rng(9);
  Lstm lstm(3, 4, rng);
  Rng data_rng(10);
  const auto seq = random_sequence(3, 2, 3, data_rng);
  Matrix target(2, 4);
  for (double& v : target.data()) v = data_rng.normal();

  auto loss_fn = [&] { return mse_loss(lstm.forward(seq), target).value; };
  for (auto* p : lstm.parameters()) p->zero_grad();
  const auto l = mse_loss(lstm.forward(seq), target);
  lstm.backward(l.grad);
  for (auto* p : lstm.parameters()) {
    const auto r = check_gradient(*p, loss_fn, 1e-6);
    EXPECT_TRUE(r.passed(1e-4)) << "max_rel=" << r.max_rel_diff;
  }
}

TEST(Lstm, BackwardBeforeForwardThrows) {
  Rng rng(15);
  Lstm lstm(2, 3, rng);
  EXPECT_THROW(lstm.backward(Matrix(1, 3)), CheckError);
}

TEST(Lstm, CanLearnToRememberFirstStep) {
  // Tiny training sanity check: target equals a linear readout of the
  // *first* input step — only the recurrent path can pass it through.
  Rng rng(16);
  Lstm lstm(1, 8, rng);
  Dense head(8, 1, rng);
  std::vector<nn::Parameter*> params = lstm.parameters();
  for (auto* p : head.parameters()) params.push_back(p);

  Rng data_rng(17);
  double initial_loss = 0.0, final_loss = 0.0;
  const double lr = 0.05;
  for (int iter = 0; iter < 1200; ++iter) {
    // Batch of 8 sequences, 3 steps each; target = first step's value.
    std::vector<Matrix> seq(3, Matrix(8, 1));
    Matrix target(8, 1);
    for (std::size_t b = 0; b < 8; ++b) {
      for (std::size_t t = 0; t < 3; ++t)
        seq[t](b, 0) = data_rng.uniform(-1.0, 1.0);
      target(b, 0) = seq[0](b, 0);
    }
    for (auto* p : params) p->zero_grad();
    const Matrix h = lstm.forward(seq);
    const Matrix y = head.forward(h);
    const auto l = mse_loss(y, target);
    const Matrix dh = head.backward(l.grad);
    lstm.backward(dh);
    for (auto* p : params) {
      const auto x = p->mutable_value().data();
      for (std::size_t i = 0; i < x.size(); ++i) x[i] -= lr * p->grad.data()[i];
    }
    if (iter == 0) initial_loss = l.value;
    final_loss = l.value;
  }
  EXPECT_LT(final_loss, initial_loss * 0.2)
      << "LSTM failed to learn a memory task: " << initial_loss << " -> "
      << final_loss;
}

}  // namespace
}  // namespace drcell::nn
