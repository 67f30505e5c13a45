// A stack of layers executed in order — the MLP used by the dense DQN
// variant and by the DRQN head.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace drcell::nn {

class Sequential {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for fluent construction.
  Sequential& add(LayerPtr layer);

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Chains the layers' workspace-returning calls: no per-step allocation,
  /// the returned reference lives in the last (first) layer's workspace and
  /// stays valid until that layer runs again.
  const Matrix& forward(const Matrix& input);
  const Matrix& backward(const Matrix& grad_output);

  /// Chains the layers' retained pre-workspace reference calls (fresh
  /// allocations per call). Bit-identical to forward()/backward().
  Matrix forward_reference(const Matrix& input);
  Matrix backward_reference(const Matrix& grad_output);

  std::vector<Parameter*> parameters();
  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace drcell::nn
