// The Adam optimiser over a flat list of Parameters, plus global-norm
// gradient clipping (standard stabilisation for recurrent Q-networks).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layer.h"

namespace drcell::util {
class ThreadPool;
}

namespace drcell::nn {

/// Adam with bias correction.
class Adam {
 public:
  Adam(std::vector<Parameter*> params, double learning_rate,
       double beta1 = 0.9, double beta2 = 0.999, double epsilon = 1e-8);

  /// Applies one update using the accumulated gradients. A non-null `pool`
  /// fans the sqrt/div-heavy elementwise update over the ThreadPool in
  /// index-exclusive parameter ranges — per thread_pool.h's determinism
  /// contract the result is bit-identical to the serial pass for any
  /// worker count (the update touches each element exactly once, with no
  /// cross-element arithmetic). On the 10,000-cell DrqnQNetwork of
  /// bench_scale_10000cell (~3.2M parameters) a serial pass added 8–13 ms
  /// to a ~20 ms train step on a 4-vCPU VM (bench/README.md).
  void step(util::ThreadPool* pool = nullptr);
  /// Clears all gradients.
  void zero_grad();

 private:
  struct Chunk {
    std::size_t tensor, lo, hi;
  };

  std::vector<Parameter*> params_;
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<Matrix> m_, v_;
  std::vector<Chunk> chunks_ws_;
  std::vector<double*> values_ws_;  // per tensor, taken by step()
};

/// Scales gradients so their global L2 norm does not exceed max_norm.
/// Returns the pre-clipping norm.
double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm);

}  // namespace drcell::nn
