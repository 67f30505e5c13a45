#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.h"

namespace drcell::nn {

Adam::Adam(std::vector<Parameter*> params, double learning_rate, double beta1,
           double beta2, double epsilon)
    : params_(std::move(params)), lr_(learning_rate), beta1_(beta1),
      beta2_(beta2), eps_(epsilon) {
  DRCELL_CHECK_MSG(!params_.empty(), "optimizer needs at least one parameter");
  for (auto* p : params_) DRCELL_CHECK(p != nullptr);
  DRCELL_CHECK(lr_ > 0.0);
  DRCELL_CHECK(beta1_ >= 0.0 && beta1_ < 1.0);
  DRCELL_CHECK(beta2_ >= 0.0 && beta2_ < 1.0);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto* p : params_) {
    m_.emplace_back(p->value().rows(), p->value().cols());
    v_.emplace_back(p->value().rows(), p->value().cols());
  }
}

// The update loop below spells out __restrict pointers and hoists the
// scalar hyper-parameters into locals. Without this the compiler must
// assume the value/grad/moment arrays (and the member doubles reachable
// through `this`) alias each other and emits a scalar loop; with it the
// loop vectorises. The per-element arithmetic is unchanged — elementwise
// mul/add/div/sqrt with no reassociation — so the update is bit-identical
// to the scalar form, it just runs several lanes at a time (the
// 10,000-cell DrqnQNetwork of bench_scale_10000cell has ~3.2M parameters;
// the metro tier's SpatialDrqnQNetwork has ~144K).

void Adam::step(util::ThreadPool* pool) {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const double beta1 = beta1_, beta2 = beta2_, lr = lr_, eps = eps_;
  // Write access, and with it the one generation bump per tensor, is taken
  // here in serial code: pool lanes write only through these pointers and
  // never touch a Parameter's counter.
  values_ws_.clear();
  for (Parameter* p : params_)
    values_ws_.push_back(p->mutable_value().data().data());
  // Scalars captured by value: a by-reference capture would be a load
  // through the closure the vectoriser must assume aliases the __restrict
  // stores below, forcing the loop scalar again.
  const auto update = [this, beta1, beta2, lr, eps, bc1,
                       bc2](std::size_t tensor, std::size_t lo,
                            std::size_t hi) {
    double* __restrict m = m_[tensor].data().data();
    double* __restrict v = v_[tensor].data().data();
    double* __restrict x = values_ws_[tensor];
    const double* __restrict g = params_[tensor]->grad.data().data();
    for (std::size_t i = lo; i < hi; ++i) {
      m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
      v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      x[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  };
  if (pool != nullptr && pool->worker_count() > 0) {
    // Index-exclusive chunks: every element is written by exactly one task
    // and the per-element arithmetic is untouched, so the pooled update is
    // bit-identical to the serial loop below for any worker count.
    constexpr std::size_t kChunk = 1 << 16;
    chunks_ws_.clear();
    for (std::size_t k = 0; k < params_.size(); ++k) {
      const std::size_t n = params_[k]->value().data().size();
      for (std::size_t lo = 0; lo < n; lo += kChunk)
        chunks_ws_.push_back({k, lo, std::min(lo + kChunk, n)});
    }
    pool->parallel_for(chunks_ws_.size(), [&](std::size_t c) {
      const Chunk& ch = chunks_ws_[c];
      update(ch.tensor, ch.lo, ch.hi);
    });
    return;
  }
  for (std::size_t k = 0; k < params_.size(); ++k)
    update(k, 0, params_[k]->value().data().size());
}

void Adam::zero_grad() {
  for (auto* p : params_) p->zero_grad();
}

double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm) {
  DRCELL_CHECK(max_norm > 0.0);
  double sq = 0.0;
  for (const auto* p : params)
    for (double g : p->grad.data()) sq += g * g;
  const double norm = std::sqrt(sq);
  if (norm > max_norm) {
    const double scale = max_norm / norm;
    for (auto* p : params)
      for (double& g : p->grad.data()) g *= scale;
  }
  return norm;
}

}  // namespace drcell::nn
