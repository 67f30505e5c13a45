// LSTM over an observation sequence with full backpropagation through time.
//
// This is the recurrent core of the paper's DRQN (Sec. 4.3, Eq. 8): the
// state S = [s_{-k+1}, …, s_0] is fed as k time steps; the final hidden
// vector summarises the recent cell-selection history and is consumed by a
// dense head that scores all m candidate actions.
//
// The cell is batch-major end to end: each step is a [batch x input]
// matrix, the carried hidden/cell states are [batch x hidden], and one
// forward/backward over a B-sample batch runs the same handful of
// [B x F]·[F x 4H] GEMMs a single sample would — just with more rows.
//
// Batched determinism contract (tests/batched_training_test.cpp): row b of
// every per-step state is computed exactly as a B=1 forward of sample b
// would compute it, and backward() accumulates parameter gradients in
// sample-major order — the per-(sample, step) outer-product contributions
// are concatenated with rows ordered (b ascending; t descending within b)
// and accumulated through one AᵀB pass, which replays, addition for
// addition, what a per-sample backward loop performs. Batched training is
// therefore bit-identical to the per-sample path from zeroed gradients.
//
// Gate nonlinearities run through the active compute backend's gate pass
// (linalg/backend.h): the fused fastmath kernel (below) under the native
// backend, the std::-based pass under the reference backend. The
// per-sample oracle (DqnTrainer::train_step_reference) runs this same cell
// at B = 1, so the bit-identity above holds under either backend; the
// two backends differ from each other by the fastmath bound (≤1e-12
// relative per activation on the training range, measured ≲1e-15 —
// tests/fastmath_test.cpp). docs/ARCHITECTURE.md states the full contract.
#pragma once

#include <vector>

#include "linalg/sparse_matrix.h"
#include "nn/layer.h"
#include "util/rng.h"

namespace drcell::nn {

/// Fused LSTM gate pass: all four gate nonlinearities (σ over the
/// [i | f] and [o] column blocks, tanh over [g]), the cell update
/// c = f∘c_prev + i∘g and h = o∘tanh(c), computed in one contiguous pass
/// per batch row over the gate workspace through the fastmath array
/// kernels. `z` is the [B x 4H] pre-activation block (column layout
/// [i | f | g | o]); `c_prev` is nullptr on the first step; `gates`
/// ([B x 4H]), `c`, `tanh_c` and `h` ([B x H]) must be pre-sized by the
/// caller. Free functions so the bench pair (`lstm_gate_pass`) and the
/// kernel tests can drive them directly.
void lstm_gate_forward(const Matrix& z, const Matrix* c_prev, Matrix& gates,
                       Matrix& c, Matrix& tanh_c, Matrix& h);

/// The mirrored fused backward gate pass: consumes the cached forward
/// tensors plus `dh` (gradient into h_t) and `dc_next` (cell-state gradient
/// from step t+1), writes the pre-activation gradients `dz` ([B x 4H]) and
/// `dc_prev` ([B x H], both pre-sized). Pure elementwise arithmetic — the
/// same expressions, in the same order, as the std:: reference pass, so
/// given identical inputs the two backward passes are bit-identical; only
/// the forward transcendentals diverge.
void lstm_gate_backward(const Matrix& gates, const Matrix& tanh_c,
                        const Matrix* c_prev, const Matrix& dh,
                        const Matrix& dc_next, Matrix& dz, Matrix& dc_prev);

/// The retained pre-fastmath gate passes (std::tanh / nn::sigmoid, scalar
/// per-element loop) — the benchmark floor of `lstm_gate_pass` and the gate
/// implementation of the "reference" compute backend (linalg/backend.h).
void lstm_gate_forward_reference(const Matrix& z, const Matrix* c_prev,
                                 Matrix& gates, Matrix& c, Matrix& tanh_c,
                                 Matrix& h);
void lstm_gate_backward_reference(const Matrix& gates, const Matrix& tanh_c,
                                  const Matrix* c_prev, const Matrix& dh,
                                  const Matrix& dc_next, Matrix& dz,
                                  Matrix& dc_prev);

class Lstm {
 public:
  Lstm(std::size_t input_size, std::size_t hidden_size, Rng& rng);

  /// Runs the cell over `steps` (each batch x input). Returns the hidden
  /// state after the last step (batch x hidden, a reference into the
  /// per-step cache — valid until the next forward()). Caches everything
  /// needed for backward().
  const Matrix& forward(const std::vector<Matrix>& steps);

  /// Sparse-input forward: the same cell fed near-one-hot step matrices.
  /// Below kSparseGatherMaxDensity the input GEMM runs as a gather
  /// (SparseRowMatrix::matmul_into) and the parameter-gradient pass later
  /// gathers too — both bit-identical to the dense kernels, so this fast
  /// path changes no computed value (tests/sparse_gather_test.cpp). At or
  /// above the threshold the steps are densified and the dense engine runs
  /// unchanged.
  const Matrix& forward(const std::vector<SparseRowMatrix>& steps);

  /// Density cutoff of the sparse forward: gather wins easily on the
  /// ≤1%-dense metro selection states and loses to the blocked dense GEMM
  /// well before one entry in four is set.
  static constexpr double kSparseGatherMaxDensity = 0.25;

  /// BPTT from the gradient w.r.t. the final hidden state; accumulates the
  /// parameter gradients. Gradients w.r.t. the inputs are not formed: the
  /// Q-networks feed the LSTM selection states (or their fixed spatial
  /// projection), so nothing upstream trains, and the per-step dz·Wxᵀ
  /// products would be the most expensive part of the pass after the
  /// parameter GEMMs.
  void backward(const Matrix& grad_last_hidden);

  std::vector<Parameter*> parameters() { return {&wx_, &wh_, &b_}; }

  std::size_t input_size() const { return wx_.value.rows(); }
  std::size_t hidden_size() const { return wh_.value.rows(); }

 private:
  // Gate block layout along columns: [input | forget | candidate | output],
  // each hidden_size wide.
  Parameter wx_;  // input  x 4*hidden
  Parameter wh_;  // hidden x 4*hidden
  Parameter b_;   // 1      x 4*hidden

  /// Shared tail of one forward step: z_ws_ already holds x_t·Wx; adds the
  /// recurrent term and bias, then runs the backend's gate pass into the
  /// step-t caches.
  void finish_step(std::size_t t);

  // Forward caches (one entry per time step; storage reused across calls).
  std::vector<Matrix> x_;       // inputs (dense path)
  std::vector<SparseRowMatrix> sx_;  // inputs (sparse path)
  bool sparse_x_ = false;  // which input cache the last forward filled
  std::vector<Matrix> gates_;   // post-activation [i f g o]
  std::vector<Matrix> c_;       // cell states
  std::vector<Matrix> tanh_c_;  // tanh(cell state)
  std::vector<Matrix> h_;       // hidden states
  std::size_t batch_ = 0;
  // Product workspaces recycled across steps/calls via matmul_into — the
  // trainer runs forward/backward thousands of times per episode, and these
  // were the per-step allocations on that path.
  Matrix z_ws_;      // x_t Wx, then += h_{t-1} Wh
  Matrix recur_ws_;  // h_{t-1} Wh (forward)
  // Backward workspaces.
  std::vector<Matrix> dz_;      // per-step pre-activation gradients
  Matrix dh_ws_;       // gradient into h_t (external + recurrent)
  Matrix dh_next_ws_;  // dz_t Whᵀ flowing to step t-1
  Matrix dc_next_ws_;  // cell-state gradient flowing to step t-1
  Matrix dc_prev_ws_;
  std::vector<Matrix> densify_ws_;  // dense fallback of the sparse forward
  // Sample-major concatenations feeding the deferred parameter GEMMs.
  Matrix xcat_ws_;    // [B·T x input]  rows (b asc; t desc)
  SparseRowMatrix sxcat_ws_;  // its sparse twin when sparse_x_
  Matrix dzcat_ws_;   // [B·T x 4H]     rows (b asc; t desc)
  Matrix hcat_ws_;    // [B·(T-1) x H]  rows (b asc; t desc, t >= 1)
  Matrix dzhcat_ws_;  // [B·(T-1) x 4H] rows (b asc; t desc, t >= 1)
};

}  // namespace drcell::nn
