#include "counting_backend.h"

#include <memory>
#include <mutex>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "util/check.h"

namespace perfbench {

namespace {

using Shard = std::array<KernelWork, kKernels>;

std::mutex g_shards_mutex;
std::vector<std::unique_ptr<Shard>> g_shards;  // guarded by the mutex
thread_local Shard* t_shard = nullptr;

void count(Kernel kernel, double flop, double bytes) {
  if (t_shard == nullptr) {
    std::lock_guard<std::mutex> lock(g_shards_mutex);
    g_shards.push_back(std::make_unique<Shard>());
    t_shard = g_shards.back().get();
  }
  KernelWork& w = (*t_shard)[static_cast<std::size_t>(kernel)];
  w.calls += 1;
  w.flop += flop;
  w.bytes += bytes;
}

double d(std::size_t v) { return static_cast<double>(v); }

}  // namespace

const char* kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kMatmul: return "matmul";
    case Kernel::kMatmulTother: return "matmul_tother";
    case Kernel::kMatmulTselfAdd: return "matmul_tself_add";
    case Kernel::kSparseMatmul: return "sparse_matmul";
    case Kernel::kSparseTselfAdd: return "sparse_tself_add";
    case Kernel::kLstmGateForward: return "lstm_gate_forward";
    case Kernel::kLstmGateBackward: return "lstm_gate_backward";
    case Kernel::kCount: break;
  }
  return "?";
}

CountingBackend::CountingBackend(const drcell::ComputeBackend& inner)
    : inner_(inner) {}

void CountingBackend::register_around(const char* inner_name) {
  if (drcell::BackendRegistry::find(kName) != nullptr) return;
  const drcell::ComputeBackend* inner =
      drcell::BackendRegistry::find(inner_name);
  DRCELL_CHECK_MSG(inner != nullptr, "unknown backend to count around");
  drcell::BackendRegistry::register_backend(
      std::make_unique<CountingBackend>(*inner));
}

std::array<KernelWork, kKernels> CountingBackend::totals() {
  std::array<KernelWork, kKernels> sum{};
  std::lock_guard<std::mutex> lock(g_shards_mutex);
  for (const auto& shard : g_shards)
    for (std::size_t k = 0; k < kKernels; ++k) {
      sum[k].calls += (*shard)[k].calls;
      sum[k].flop += (*shard)[k].flop;
      sum[k].bytes += (*shard)[k].bytes;
    }
  return sum;
}

void CountingBackend::reset() {
  std::lock_guard<std::mutex> lock(g_shards_mutex);
  for (auto& shard : g_shards) shard->fill(KernelWork{});
}

void CountingBackend::matmul_into(const drcell::Matrix& a,
                                  const drcell::Matrix& b,
                                  drcell::Matrix& out) const {
  const double m = d(a.rows()), k = d(a.cols()), n = d(b.cols());
  count(Kernel::kMatmul, 2 * m * k * n, 8 * (m * k + k * n + m * n));
  inner_.matmul_into(a, b, out);
}

void CountingBackend::matmul_transposed_other_into(const drcell::Matrix& a,
                                                   const drcell::Matrix& b,
                                                   drcell::Matrix& out) const {
  const double m = d(a.rows()), k = d(a.cols()), n = d(b.rows());
  count(Kernel::kMatmulTother, 2 * m * k * n, 8 * (m * k + n * k + m * n));
  inner_.matmul_transposed_other_into(a, b, out);
}

void CountingBackend::matmul_transposed_self_add(const drcell::Matrix& a,
                                                 const drcell::Matrix& b,
                                                 drcell::Matrix& out) const {
  const double r = d(a.rows()), m = d(a.cols()), n = d(b.cols());
  count(Kernel::kMatmulTselfAdd, 2 * r * m * n,
        8 * (r * m + r * n + 2 * m * n));
  inner_.matmul_transposed_self_add(a, b, out);
}

void CountingBackend::sparse_matmul_into(const drcell::SparseRowMatrix& a,
                                         const drcell::Matrix& b,
                                         drcell::Matrix& out) const {
  const double z = d(a.nonzeros()), r = d(a.rows()), n = d(b.cols());
  count(Kernel::kSparseMatmul, 2 * z * n, 12 * z + 8 * z * n + 8 * r * n);
  inner_.sparse_matmul_into(a, b, out);
}

void CountingBackend::sparse_matmul_transposed_self_add(
    const drcell::SparseRowMatrix& a, const drcell::Matrix& b,
    drcell::Matrix& out) const {
  const double z = d(a.nonzeros()), r = d(a.rows()), n = d(b.cols());
  count(Kernel::kSparseTselfAdd, 2 * z * n, 12 * z + 8 * r * n + 16 * z * n);
  inner_.sparse_matmul_transposed_self_add(a, b, out);
}

void CountingBackend::lstm_gate_forward(const drcell::Matrix& z,
                                        const drcell::Matrix* c_prev,
                                        drcell::Matrix& gates,
                                        drcell::Matrix& c,
                                        drcell::Matrix& tanh_c,
                                        drcell::Matrix& h) const {
  const double elems = d(z.rows()) * d(z.cols());  // B x 4H
  count(Kernel::kLstmGateForward, 8 * elems, 8 * elems * 3);
  inner_.lstm_gate_forward(z, c_prev, gates, c, tanh_c, h);
}

void CountingBackend::lstm_gate_backward(const drcell::Matrix& gates,
                                         const drcell::Matrix& tanh_c,
                                         const drcell::Matrix* c_prev,
                                         const drcell::Matrix& dh,
                                         const drcell::Matrix& dc_next,
                                         drcell::Matrix& dz,
                                         drcell::Matrix& dc_prev) const {
  const double elems = d(gates.rows()) * d(gates.cols());  // B x 4H
  count(Kernel::kLstmGateBackward, 8 * elems, 8 * elems * 13 / 4);
  inner_.lstm_gate_backward(gates, tanh_c, c_prev, dh, dc_next, dz, dc_prev);
}

}  // namespace perfbench
