#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

#include "linalg/backend.h"
#include "nn/activations.h"
#include "nn/init.h"
#include "util/fastmath.h"

namespace drcell::nn {

namespace {

void check_gate_shapes(const Matrix& z, const Matrix* c_prev,
                       const Matrix& gates, const Matrix& c,
                       const Matrix& tanh_c, const Matrix& h) {
  const std::size_t batch = z.rows();
  const std::size_t hidden = c.cols();
  DRCELL_DCHECK(z.cols() == 4 * hidden);
  DRCELL_DCHECK(gates.rows() == batch && gates.cols() == 4 * hidden);
  DRCELL_DCHECK(c.rows() == batch);
  DRCELL_DCHECK(tanh_c.rows() == batch && tanh_c.cols() == hidden);
  DRCELL_DCHECK(h.rows() == batch && h.cols() == hidden);
  DRCELL_DCHECK(c_prev == nullptr ||
                (c_prev->rows() == batch && c_prev->cols() == hidden));
}

}  // namespace

void lstm_gate_forward(const Matrix& z, const Matrix* c_prev, Matrix& gates,
                       Matrix& c, Matrix& tanh_c, Matrix& h) {
  check_gate_shapes(z, c_prev, gates, c, tanh_c, h);
  const std::size_t batch = z.rows();
  const std::size_t hidden = c.cols();
  for (std::size_t r = 0; r < batch; ++r) {
    const double* zr = z.row(r).data();
    double* gr = gates.row(r).data();
    // Column layout [i | f | g | o]: i and f are adjacent, so one sigmoid
    // pass covers both blocks; g is tanh; o is sigmoid.
    fastmath::sigmoid_array(zr, gr, 2 * hidden);
    fastmath::tanh_array(zr + 2 * hidden, gr + 2 * hidden, hidden);
    fastmath::sigmoid_array(zr + 3 * hidden, gr + 3 * hidden, hidden);

    const double* i = gr;
    const double* f = gr + hidden;
    const double* g = gr + 2 * hidden;
    const double* o = gr + 3 * hidden;
    double* cr = c.row(r).data();
    double* tr = tanh_c.row(r).data();
    double* hr = h.row(r).data();
    if (c_prev != nullptr) {
      const double* cp = c_prev->row(r).data();
      for (std::size_t j = 0; j < hidden; ++j) cr[j] = f[j] * cp[j] + i[j] * g[j];
    } else {
      for (std::size_t j = 0; j < hidden; ++j) cr[j] = i[j] * g[j];
    }
    fastmath::tanh_array(cr, tr, hidden);
    for (std::size_t j = 0; j < hidden; ++j) hr[j] = o[j] * tr[j];
  }
}

void lstm_gate_backward(const Matrix& gates, const Matrix& tanh_c,
                        const Matrix* c_prev, const Matrix& dh,
                        const Matrix& dc_next, Matrix& dz, Matrix& dc_prev) {
  const std::size_t batch = gates.rows();
  const std::size_t hidden = tanh_c.cols();
  DRCELL_DCHECK(gates.cols() == 4 * hidden);
  DRCELL_DCHECK(dh.rows() == batch && dh.cols() == hidden);
  DRCELL_DCHECK(dc_next.rows() == batch && dc_next.cols() == hidden);
  DRCELL_DCHECK(dz.rows() == batch && dz.cols() == 4 * hidden);
  DRCELL_DCHECK(dc_prev.rows() == batch && dc_prev.cols() == hidden);
  for (std::size_t r = 0; r < batch; ++r) {
    const double* gr = gates.row(r).data();
    const double* i = gr;
    const double* f = gr + hidden;
    const double* g = gr + 2 * hidden;
    const double* o = gr + 3 * hidden;
    const double* tc = tanh_c.row(r).data();
    const double* cp = c_prev != nullptr ? c_prev->row(r).data() : nullptr;
    const double* dhr = dh.row(r).data();
    const double* dcn = dc_next.row(r).data();
    double* dzr = dz.row(r).data();
    double* dzi = dzr;
    double* dzf = dzr + hidden;
    double* dzg = dzr + 2 * hidden;
    double* dzo = dzr + 3 * hidden;
    double* dcp = dc_prev.row(r).data();
    // Same expressions, in the same evaluation order, as the std::
    // reference pass — the backward is exact elementwise arithmetic, so
    // the fused and reference passes are bit-identical given equal inputs.
    for (std::size_t j = 0; j < hidden; ++j) {
      const double c_prev_j = cp != nullptr ? cp[j] : 0.0;
      const double dht = dhr[j];
      const double d_o = dht * tc[j];
      const double dct = dcn[j] + dht * o[j] * (1.0 - tc[j] * tc[j]);
      dcp[j] = dct * f[j];
      dzi[j] = (dct * g[j]) * (i[j] * (1.0 - i[j]));
      dzf[j] = (dct * c_prev_j) * (f[j] * (1.0 - f[j]));
      dzg[j] = (dct * i[j]) * (1.0 - g[j] * g[j]);
      dzo[j] = d_o * (o[j] * (1.0 - o[j]));
    }
  }
}

void lstm_gate_forward_reference(const Matrix& z, const Matrix* c_prev,
                                 Matrix& gates, Matrix& c, Matrix& tanh_c,
                                 Matrix& h) {
  // The pre-fastmath gate pass: scalar std::tanh / nn::sigmoid per element
  // through checked-ish operator() indexing, exactly as the cell shipped it.
  check_gate_shapes(z, c_prev, gates, c, tanh_c, h);
  const std::size_t batch = z.rows();
  const std::size_t hidden = c.cols();
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t j = 0; j < hidden; ++j) {
      const double zi = z(r, j);
      const double zf = z(r, hidden + j);
      const double zg = z(r, 2 * hidden + j);
      const double zo = z(r, 3 * hidden + j);
      const double i = sigmoid(zi);
      const double f = sigmoid(zf);
      const double g = std::tanh(zg);
      const double o = sigmoid(zo);
      gates(r, j) = i;
      gates(r, hidden + j) = f;
      gates(r, 2 * hidden + j) = g;
      gates(r, 3 * hidden + j) = o;
      const double c_new =
          (c_prev != nullptr ? f * (*c_prev)(r, j) : 0.0) + i * g;
      c(r, j) = c_new;
      const double tc = std::tanh(c_new);
      tanh_c(r, j) = tc;
      h(r, j) = o * tc;
    }
  }
}

void lstm_gate_backward_reference(const Matrix& gates, const Matrix& tanh_c,
                                  const Matrix* c_prev, const Matrix& dh,
                                  const Matrix& dc_next, Matrix& dz,
                                  Matrix& dc_prev) {
  const std::size_t batch = gates.rows();
  const std::size_t hidden = tanh_c.cols();
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t j = 0; j < hidden; ++j) {
      const double i = gates(r, j);
      const double f = gates(r, hidden + j);
      const double g = gates(r, 2 * hidden + j);
      const double o = gates(r, 3 * hidden + j);
      const double tc = tanh_c(r, j);
      const double c_prev_j = c_prev != nullptr ? (*c_prev)(r, j) : 0.0;

      const double dht = dh(r, j);
      const double d_o = dht * tc;
      const double dct = dc_next(r, j) + dht * o * dtanh_from_output(tc);
      const double d_i = dct * g;
      const double d_f = dct * c_prev_j;
      const double d_g = dct * i;
      dc_prev(r, j) = dct * f;

      dz(r, j) = d_i * dsigmoid_from_output(i);
      dz(r, hidden + j) = d_f * dsigmoid_from_output(f);
      dz(r, 2 * hidden + j) = d_g * dtanh_from_output(g);
      dz(r, 3 * hidden + j) = d_o * dsigmoid_from_output(o);
    }
  }
}

Lstm::Lstm(std::size_t input_size, std::size_t hidden_size, Rng& rng)
    : wx_(input_size, 4 * hidden_size),
      wh_(hidden_size, 4 * hidden_size),
      b_(1, 4 * hidden_size) {
  DRCELL_CHECK(input_size > 0 && hidden_size > 0);
  xavier_uniform(wx_.mutable_value(), input_size, hidden_size, rng);
  xavier_uniform(wh_.mutable_value(), hidden_size, hidden_size, rng);
  // Forget-gate bias starts at 1 so early training does not erase memory.
  Matrix& b = b_.mutable_value();
  for (std::size_t c = hidden_size; c < 2 * hidden_size; ++c) b(0, c) = 1.0;
}

void Lstm::finish_step(std::size_t t) {
  const std::size_t hidden = hidden_size();
  // Pre-activations z = x Wx + h_{t-1} Wh + b (workspaces reused across
  // steps and calls); z_ws_ arrives holding the input product. The very
  // first step has no previous hidden state; skipping the zero product is
  // bit-identical to adding it.
  Matrix& z = z_ws_;
  if (t > 0) {
    h_[t - 1].matmul_into(wh_.value(), recur_ws_);
    z += recur_ws_;
  }
  for (std::size_t r = 0; r < batch_; ++r)
    for (std::size_t col = 0; col < 4 * hidden; ++col)
      z(r, col) += b_.value()(0, col);

  Matrix& gates = gates_[t];
  gates.resize_overwrite(batch_, 4 * hidden);
  Matrix& ct = c_[t];
  ct.resize_overwrite(batch_, hidden);
  Matrix& tct = tanh_c_[t];
  tct.resize_overwrite(batch_, hidden);
  Matrix& ht = h_[t];
  ht.resize_overwrite(batch_, hidden);
  const Matrix* c_prev = t > 0 ? &c_[t - 1] : nullptr;
  BackendRegistry::active().lstm_gate_forward(z, c_prev, gates, ct, tct, ht);
}

const Matrix& Lstm::forward(const std::vector<Matrix>& steps) {
  DRCELL_CHECK_MSG(!steps.empty(), "LSTM forward on empty sequence");
  batch_ = steps.front().rows();
  sparse_x_ = false;

  const std::size_t t_max = steps.size();
  x_.resize(t_max);
  gates_.resize(t_max);
  c_.resize(t_max);
  tanh_c_.resize(t_max);
  h_.resize(t_max);

  for (std::size_t t = 0; t < t_max; ++t) {
    const Matrix& xt = steps[t];
    DRCELL_CHECK_MSG(xt.rows() == batch_ && xt.cols() == input_size(),
                     "LSTM: inconsistent step shape");
    x_[t] = xt;
    xt.matmul_into(wx_.value(), z_ws_);
    finish_step(t);
  }
  return h_.back();
}

const Matrix& Lstm::forward(const std::vector<SparseRowMatrix>& steps) {
  DRCELL_CHECK_MSG(!steps.empty(), "LSTM forward on empty sequence");
  std::size_t nnz = 0;
  std::size_t total = 0;
  for (const auto& s : steps) {
    nnz += s.nonzeros();
    total += s.rows() * s.cols();
  }
  const double density =
      total == 0 ? 1.0 : static_cast<double>(nnz) / static_cast<double>(total);
  if (density >= kSparseGatherMaxDensity) {
    // Too dense for the gather to win — run the blocked dense engine on the
    // densified steps (same values, so downstream is unaffected).
    densify_ws_.resize(steps.size());
    for (std::size_t t = 0; t < steps.size(); ++t)
      steps[t].to_dense(densify_ws_[t]);
    return forward(densify_ws_);
  }

  batch_ = steps.front().rows();
  sparse_x_ = true;

  const std::size_t t_max = steps.size();
  sx_.resize(t_max);
  gates_.resize(t_max);
  c_.resize(t_max);
  tanh_c_.resize(t_max);
  h_.resize(t_max);

  for (std::size_t t = 0; t < t_max; ++t) {
    const SparseRowMatrix& xt = steps[t];
    DRCELL_CHECK_MSG(xt.rows() == batch_ && xt.cols() == input_size(),
                     "LSTM: inconsistent step shape");
    sx_[t] = xt;
    xt.matmul_into(wx_.value(), z_ws_);
    finish_step(t);
  }
  return h_.back();
}

void Lstm::backward(const Matrix& grad_last_hidden) {
  const std::size_t t_max = h_.size();
  DRCELL_CHECK_MSG(t_max > 0, "LSTM backward before forward");
  const std::size_t hidden = hidden_size();
  DRCELL_CHECK(grad_last_hidden.rows() == batch_ &&
               grad_last_hidden.cols() == hidden);

  dz_.resize(t_max);
  dc_next_ws_.resize(batch_, hidden);

  for (std::size_t t = t_max; t-- > 0;) {
    // Gradient into h_t: the external gradient at the last step, the
    // recurrent one before it. The recurrent term is added onto zeros (not
    // copied), so a -0.0 lands as +0.0 exactly as in the per-sample path.
    if (t + 1 == t_max) {
      dh_ws_ = grad_last_hidden;
    } else {
      dh_ws_.resize(batch_, hidden);
      dh_ws_ += dh_next_ws_;
    }

    const Matrix& gates = gates_[t];
    const Matrix& tct = tanh_c_[t];
    Matrix& dz = dz_[t];
    dz.resize_overwrite(batch_, 4 * hidden);
    dc_prev_ws_.resize_overwrite(batch_, hidden);
    const Matrix* c_prev = t > 0 ? &c_[t - 1] : nullptr;
    BackendRegistry::active().lstm_gate_backward(gates, tct, c_prev, dh_ws_,
                                                 dc_next_ws_, dz, dc_prev_ws_);

    // Gradient flowing to the previous step (no transpose materialised).
    // Input gradients are never formed: nothing upstream of the LSTM trains.
    if (t > 0) dz.matmul_transposed_other_into(wh_.value(), dh_next_ws_);
    std::swap(dc_next_ws_, dc_prev_ws_);
  }

  // Deferred parameter gradients. The per-(sample, step) contributions are
  // concatenated sample-major — rows ordered (b ascending; t descending
  // within b, matching the backward recursion) — and accumulated with one
  // AᵀB pass per parameter. matmul_transposed_self_add walks rows in
  // ascending order, so the additions land in grad in exactly the order a
  // per-sample backward loop would produce: batched gradients are
  // bit-identical to the per-sample path. Bonus: one [F x B·T]·[B·T x 4H]
  // GEMM beats T skinny per-step products.
  const std::size_t in = input_size();
  dzcat_ws_.resize_overwrite(batch_ * t_max, 4 * hidden);
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = t_max; t-- > 0;) {
      const std::size_t row = b * t_max + (t_max - 1 - t);
      const auto dzrow = dz_[t].row(b);
      std::copy(dzrow.begin(), dzrow.end(), dzcat_ws_.row(row).begin());
    }
  }
  if (sparse_x_) {
    // Sparse twin of the xcat concat: same (b asc; t desc) row order, so
    // the gathered AᵀB accumulates into wx_.grad in exactly the dense
    // pass's addition order — bit-identical.
    sxcat_ws_.reset(batch_ * t_max, in);
    for (std::size_t b = 0; b < batch_; ++b) {
      for (std::size_t t = t_max; t-- > 0;) {
        const std::size_t row = b * t_max + (t_max - 1 - t);
        const auto cols = sx_[t].row_indices(b);
        const auto vals = sx_[t].row_values(b);
        for (std::size_t e = 0; e < cols.size(); ++e)
          sxcat_ws_.append(row, cols[e], vals[e]);
      }
    }
    sxcat_ws_.matmul_transposed_self_add(dzcat_ws_, wx_.grad);
  } else {
    xcat_ws_.resize_overwrite(batch_ * t_max, in);
    for (std::size_t b = 0; b < batch_; ++b) {
      for (std::size_t t = t_max; t-- > 0;) {
        const std::size_t row = b * t_max + (t_max - 1 - t);
        const auto xrow = x_[t].row(b);
        std::copy(xrow.begin(), xrow.end(), xcat_ws_.row(row).begin());
      }
    }
    xcat_ws_.matmul_transposed_self_add(dzcat_ws_, wx_.grad);
  }
  for (std::size_t row = 0; row < dzcat_ws_.rows(); ++row) {
    const auto dzrow = dzcat_ws_.row(row);
    for (std::size_t col = 0; col < 4 * hidden; ++col)
      b_.grad(0, col) += dzrow[col];
  }
  if (t_max > 1) {
    // Recurrent weights: the t = 0 step has no previous hidden state, so
    // its rows are excluded (matching the per-sample loop exactly).
    hcat_ws_.resize_overwrite(batch_ * (t_max - 1), hidden);
    dzhcat_ws_.resize_overwrite(batch_ * (t_max - 1), 4 * hidden);
    for (std::size_t b = 0; b < batch_; ++b) {
      for (std::size_t t = t_max; t-- > 1;) {
        const std::size_t row = b * (t_max - 1) + (t_max - 1 - t);
        const auto hrow = h_[t - 1].row(b);
        std::copy(hrow.begin(), hrow.end(), hcat_ws_.row(row).begin());
        const auto dzrow = dz_[t].row(b);
        std::copy(dzrow.begin(), dzrow.end(), dzhcat_ws_.row(row).begin());
      }
    }
    hcat_ws_.matmul_transposed_self_add(dzhcat_ws_, wh_.grad);
  }
}

}  // namespace drcell::nn
