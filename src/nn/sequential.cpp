#include "nn/sequential.h"

namespace drcell::nn {

Sequential& Sequential::add(LayerPtr layer) {
  DRCELL_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

const Matrix& Sequential::forward(const Matrix& input) {
  DRCELL_CHECK_MSG(!layers_.empty(), "empty Sequential");
  const Matrix* x = &input;
  for (auto& l : layers_) x = &l->forward(*x);
  return *x;
}

const Matrix& Sequential::backward(const Matrix& grad_output) {
  DRCELL_CHECK_MSG(!layers_.empty(), "empty Sequential");
  const Matrix* g = &grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = &(*it)->backward(*g);
  return *g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> all;
  for (auto& l : layers_) {
    auto ps = l->parameters();
    all.insert(all.end(), ps.begin(), ps.end());
  }
  return all;
}

}  // namespace drcell::nn
