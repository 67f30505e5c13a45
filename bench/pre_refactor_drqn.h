// The floor network of the two batched-train-step bench pairs
// (`train_step_batched` in bench_micro_components,
// `scale_train_step_1000cell` in bench_scale_1000cell).
//
// Those floors time DqnTrainer::train_step_reference, the per-sample update
// that forwards and backpropagates each transition as its own B = 1
// sequence. The library's networks run that loop on their workspace
// engines; the floors were recorded against the engine the batched trainer
// replaced, so the trainer they time is built on this network instead. It
// is the paper's DRQN (an LSTM over the k recent selection vectors, one
// dense output layer) with the pre-refactor bodies:
//  * every product, gate block and per-step state is allocated per call;
//  * the initial zero hidden state is multiplied through;
//  * the backward materialises Wᵀ (head) and Wxᵀ/Whᵀ (every LSTM step),
//    forms the input gradients it then discards, and accumulates the
//    parameter gradients one step at a time.
// It computes the same dot products in the same order as
// rl::DrqnQNetwork, so at B = 1 it is bit-identical to it. Both benches
// check that on 5 shared minibatches before timing anything.
//
// Parameters live in an nn::Lstm and an nn::Dense built in DrqnQNetwork's
// order, so the Xavier draws and the parameters() order match: a floor
// trainer seeded like the batched trainer starts from the same weights.
// The column-restricted pair is never called by the per-sample update and
// throws.
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "linalg/backend.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "rl/dqn_trainer.h"
#include "rl/qnetwork.h"
#include "util/rng.h"

namespace drcell::bench {

class PreRefactorDrqn final : public rl::QNetwork {
 public:
  PreRefactorDrqn(std::size_t num_cells, std::size_t history_steps,
                  std::size_t lstm_hidden, Rng& rng)
      : num_cells_(num_cells),
        history_steps_(history_steps),
        lstm_(num_cells, lstm_hidden, rng),
        head_(lstm_hidden, num_cells, rng) {
    const auto ps = lstm_.parameters();  // {Wx, Wh, b}
    wx_ = ps[0];
    wh_ = ps[1];
    lstm_b_ = ps[2];
  }
  // The cached parameter pointers point into this object.
  PreRefactorDrqn(const PreRefactorDrqn&) = delete;
  PreRefactorDrqn& operator=(const PreRefactorDrqn&) = delete;

  const Matrix& forward_batch(const std::vector<Matrix>& sequence) override {
    DRCELL_CHECK_MSG(sequence.size() == history_steps_,
                     "sequence length mismatch");
    q_ = head_forward(lstm_forward(sequence));
    return q_;
  }

  void backward(const Matrix& grad_q) override {
    const Matrix grad_hidden = head_backward(grad_q);
    (void)lstm_backward(grad_hidden);
  }

  const Matrix& forward_batch_columns(const std::vector<SparseRowMatrix>&,
                                      const rl::ActionColumns&) override {
    throw std::logic_error("PreRefactorDrqn: no column-restricted forward");
  }
  void backward_columns(const Matrix&, const rl::ActionColumns&) override {
    throw std::logic_error("PreRefactorDrqn: no column-restricted backward");
  }

  std::vector<nn::Parameter*> parameters() override {
    auto ps = lstm_.parameters();
    ps.push_back(&head_.weight());
    ps.push_back(&head_.bias());
    return ps;
  }
  std::unique_ptr<rl::QNetwork> clone_architecture(Rng& rng) const override {
    return std::make_unique<PreRefactorDrqn>(num_cells_, history_steps_,
                                             lstm_.hidden_size(), rng);
  }
  std::size_t num_actions() const override { return num_cells_; }
  std::size_t history_steps() const override { return history_steps_; }
  std::string name() const override { return "drqn-lstm-pre-refactor"; }

 private:
  Matrix lstm_forward(const std::vector<Matrix>& steps) {
    const std::size_t hidden = lstm_.hidden_size();
    batch_ = steps.front().rows();
    const std::size_t t_max = steps.size();
    x_.assign(steps.begin(), steps.end());
    gates_.assign(t_max, Matrix(batch_, 4 * hidden));
    c_.assign(t_max, Matrix(batch_, hidden));
    tanh_c_.assign(t_max, Matrix(batch_, hidden));
    h_.assign(t_max, Matrix(batch_, hidden));

    const Matrix h_initial(batch_, hidden);
    for (std::size_t t = 0; t < t_max; ++t) {
      const Matrix& xt = steps[t];
      DRCELL_CHECK_MSG(xt.rows() == batch_ && xt.cols() == lstm_.input_size(),
                       "LSTM: inconsistent step shape");
      Matrix z = xt.matmul(wx_->value);
      z += (t > 0 ? h_[t - 1] : h_initial).matmul(wh_->value);
      for (std::size_t r = 0; r < batch_; ++r)
        for (std::size_t col = 0; col < 4 * hidden; ++col)
          z(r, col) += lstm_b_->value(0, col);
      // No previous cell state at t = 0, as nn::Lstm runs the gate pass.
      BackendRegistry::active().lstm_gate_forward(
          z, t > 0 ? &c_[t - 1] : nullptr, gates_[t], c_[t], tanh_c_[t],
          h_[t]);
    }
    return h_.back();
  }

  std::vector<Matrix> lstm_backward(const Matrix& grad_last_hidden) {
    const std::size_t t_max = h_.size();
    const std::size_t hidden = lstm_.hidden_size();
    std::vector<Matrix> grad_x(t_max);
    Matrix dh_next(batch_, hidden);
    Matrix dc_next(batch_, hidden);

    for (std::size_t t = t_max; t-- > 0;) {
      Matrix dh =
          t + 1 == t_max ? grad_last_hidden : Matrix(batch_, hidden);
      DRCELL_CHECK(dh.rows() == batch_ && dh.cols() == hidden);
      dh += dh_next;

      Matrix dz(batch_, 4 * hidden);
      Matrix dc_prev(batch_, hidden);
      BackendRegistry::active().lstm_gate_backward(
          gates_[t], tanh_c_[t], t > 0 ? &c_[t - 1] : nullptr, dh, dc_next,
          dz, dc_prev);

      wx_->grad += x_[t].matmul_transposed_self(dz);
      if (t > 0) wh_->grad += h_[t - 1].matmul_transposed_self(dz);
      for (std::size_t r = 0; r < batch_; ++r)
        for (std::size_t col = 0; col < 4 * hidden; ++col)
          lstm_b_->grad(0, col) += dz(r, col);

      grad_x[t] = dz.matmul(wx_->value.transposed());
      dh_next = dz.matmul(wh_->value.transposed());
      dc_next = std::move(dc_prev);
    }
    return grad_x;
  }

  Matrix head_forward(const Matrix& input) {
    head_input_ = input;
    Matrix out = input.matmul(head_.weight().value);
    for (std::size_t r = 0; r < out.rows(); ++r)
      for (std::size_t c = 0; c < out.cols(); ++c)
        out(r, c) += head_.bias().value(0, c);
    return out;
  }

  Matrix head_backward(const Matrix& grad_output) {
    head_.weight().grad += head_input_.matmul_transposed_self(grad_output);
    for (std::size_t r = 0; r < grad_output.rows(); ++r)
      for (std::size_t c = 0; c < grad_output.cols(); ++c)
        head_.bias().grad(0, c) += grad_output(r, c);
    return grad_output.matmul(head_.weight().value.transposed());
  }

  std::size_t num_cells_;
  std::size_t history_steps_;
  nn::Lstm lstm_;    // parameters only; the caches below are this class's
  nn::Dense head_;
  nn::Parameter* wx_;      // lstm_'s input weights
  nn::Parameter* wh_;      // lstm_'s recurrent weights
  nn::Parameter* lstm_b_;  // lstm_'s bias
  std::size_t batch_ = 0;
  std::vector<Matrix> x_, gates_, c_, tanh_c_, h_;
  Matrix head_input_;
  Matrix q_;
};

/// The parameter self-check both floors run before timing, so a perf run
/// can never report a speedup for a path that silently diverged: the
/// production batched step on `batched` and the per-sample floor on
/// `floor_trainer` (same seeds, replay pools of `pool_size`) after 5 shared
/// minibatch updates. Bit-identical under exact-contract backends; a
/// tolerance backend's per-sample path runs differently shaped GEMMs, so
/// it is held to the documented 1e-8 max-abs bound instead
/// (docs/ARCHITECTURE.md). Exits 1 on divergence.
inline void check_floor_parity(rl::DqnTrainer& batched,
                               rl::DqnTrainer& floor_trainer,
                               std::size_t pool_size) {
  Rng draw(11);
  for (int step = 0; step < 5; ++step) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < batched.options().batch_size; ++i)
      indices.push_back(draw.uniform_index(pool_size));
    (void)batched.train_step_on_indices(indices);
    (void)floor_trainer.train_step_reference_on_indices(indices);
  }
  const auto pb = batched.online().parameters();
  const auto pf = floor_trainer.online().parameters();
  const bool exact = BackendRegistry::active().exact_contract();
  for (std::size_t i = 0; i < pb.size(); ++i) {
    const bool ok = exact ? pb[i]->value == pf[i]->value
                          : (pb[i]->value - pf[i]->value).max_abs() <= 1e-8;
    if (!ok) {
      std::cerr << "FAIL: batched train step diverged from the per-sample "
                   "reference path (parameter "
                << i << ")\n";
      std::exit(1);
    }
  }
}

}  // namespace drcell::bench
