// Registry semantics of the compute-backend layer (linalg/backend.h) plus
// the native-pin regression: the registry's "native" backend must stay
// bit-identical to the pre-registry kernels, so routing Matrix /
// SparseRowMatrix / Lstm through the dispatch layer changed no computed
// value.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "linalg/backend.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "util/check.h"
#include "util/rng.h"

namespace drcell {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     double zero_prob = 0.3) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.bernoulli(zero_prob) ? 0.0 : rng.normal();
  return m;
}

class BackendRegistryTest : public ::testing::Test {
 protected:
  // Every test in this file runs under native (the pin tests need it) and
  // restores whatever backend the suite was running under — the CI matrix
  // runs the whole binary with DRCELL_BACKEND=reference, and these tests
  // must not leak a different choice into later tests.
  void SetUp() override {
    prev_ = BackendRegistry::active().name();
    BackendRegistry::set_active("native");
  }
  void TearDown() override { BackendRegistry::set_active(prev_); }

 private:
  std::string prev_;
};

TEST_F(BackendRegistryTest, BuiltInBackendsAreRegistered) {
  ASSERT_NE(BackendRegistry::find("native"), nullptr);
  ASSERT_NE(BackendRegistry::find("reference"), nullptr);
  EXPECT_TRUE(BackendRegistry::find("native")->exact_contract());
  EXPECT_TRUE(BackendRegistry::find("reference")->exact_contract());
  EXPECT_EQ(BackendRegistry::find("native")->tolerance_vs_native(), 0.0);
  EXPECT_EQ(BackendRegistry::find("no-such-backend"), nullptr);
}

TEST_F(BackendRegistryTest, SetActiveSwitchesAndUnknownNameThrows) {
  BackendRegistry::set_active("reference");
  EXPECT_STREQ(BackendRegistry::active().name(), "reference");
  BackendRegistry::set_active("native");
  EXPECT_STREQ(BackendRegistry::active().name(), "native");
  EXPECT_THROW(BackendRegistry::set_active("no-such-backend"),
               CheckError);
}

TEST_F(BackendRegistryTest, RegisterCustomBackendAndDuplicateNameThrows) {
  // A user-supplied backend is selectable by name; re-registering a taken
  // name fails loudly.
  class Forwarding final : public ComputeBackend {
   public:
    explicit Forwarding(const char* name) : name_(name) {}
    const char* name() const override { return name_; }
    bool exact_contract() const override { return true; }
    double tolerance_vs_native() const override { return 0.0; }
    void matmul_into(const Matrix& a, const Matrix& b,
                     Matrix& out) const override {
      kernels::matmul_blocked_into(a, b, out);
    }
    void matmul_transposed_other_into(const Matrix& a, const Matrix& b,
                                      Matrix& out) const override {
      kernels::matmul_transposed_other_into(a, b, out);
    }
    void matmul_transposed_self_add(const Matrix& a, const Matrix& b,
                                    Matrix& out) const override {
      kernels::matmul_transposed_self_add(a, b, out);
    }
    void sparse_matmul_into(const SparseRowMatrix& a, const Matrix& b,
                            Matrix& out) const override {
      kernels::sparse_gather_matmul_into(a, b, out);
    }
    void sparse_matmul_transposed_self_add(const SparseRowMatrix& a,
                                           const Matrix& b,
                                           Matrix& out) const override {
      kernels::sparse_gather_transposed_self_add(a, b, out);
    }
    void lstm_gate_forward(const Matrix& z, const Matrix* c_prev,
                           Matrix& gates, Matrix& c, Matrix& tanh_c,
                           Matrix& h) const override {
      BackendRegistry::find("native")->lstm_gate_forward(z, c_prev, gates, c,
                                                         tanh_c, h);
    }
    void lstm_gate_backward(const Matrix& gates, const Matrix& tanh_c,
                            const Matrix* c_prev, const Matrix& dh,
                            const Matrix& dc_next, Matrix& dz,
                            Matrix& dc_prev) const override {
      BackendRegistry::find("native")->lstm_gate_backward(
          gates, tanh_c, c_prev, dh, dc_next, dz, dc_prev);
    }

   private:
    const char* name_;
  };

  if (BackendRegistry::find("custom-for-test") == nullptr)
    BackendRegistry::register_backend(
        std::make_unique<Forwarding>("custom-for-test"));
  BackendRegistry::set_active("custom-for-test");
  EXPECT_STREQ(BackendRegistry::active().name(), "custom-for-test");

  Rng rng(3);
  const Matrix a = random_matrix(5, 7, rng);
  const Matrix b = random_matrix(7, 4, rng, 0.0);
  Matrix through_registry;
  a.matmul_into(b, through_registry);
  BackendRegistry::set_active("native");
  Matrix through_native;
  a.matmul_into(b, through_native);
  EXPECT_EQ(through_registry, through_native);

  EXPECT_THROW(
      BackendRegistry::register_backend(std::make_unique<Forwarding>("native")),
      CheckError);
}

TEST_F(BackendRegistryTest, NativeMatmulPinnedToPreRegistrySeedKernel) {
  // The native-pin regression: the registry-dispatched matmul must stay
  // bit-identical to matmul_unblocked, the retained seed kernel that never
  // went through the backend layer. If a refactor of the dispatch path or
  // the blocked kernel perturbs any addition, this trips.
  Rng rng(17);
  for (const auto& s : {std::array<std::size_t, 3>{1, 1, 1},
                        std::array<std::size_t, 3>{9, 33, 12},
                        std::array<std::size_t, 3>{40, 64, 130}}) {
    const Matrix a = random_matrix(s[0], s[1], rng);
    const Matrix b = random_matrix(s[1], s[2], rng, 0.0);
    EXPECT_EQ(a.matmul(b), a.matmul_unblocked(b))
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST_F(BackendRegistryTest, DirectKernelCallsMatchDispatchedMethods) {
  // kernels:: free functions (what the native backend forwards to) vs the
  // Matrix/SparseRowMatrix methods under the native backend: the dispatch
  // layer must add no arithmetic of its own.
  Rng rng(19);
  const Matrix a = random_matrix(11, 23, rng);
  const Matrix b = random_matrix(23, 9, rng, 0.0);

  Matrix via_method;
  a.matmul_into(b, via_method);
  Matrix via_kernel(11, 9);
  kernels::matmul_blocked_into(a, b, via_kernel);
  EXPECT_EQ(via_method, via_kernel);

  const Matrix bt = random_matrix(9, 23, rng, 0.0);
  Matrix t_method;
  a.matmul_transposed_other_into(bt, t_method);
  Matrix t_kernel(11, 9);
  kernels::matmul_transposed_other_into(a, bt, t_kernel);
  EXPECT_EQ(t_method, t_kernel);

  const Matrix g = random_matrix(11, 9, rng, 0.0);
  Matrix acc_method = random_matrix(23, 9, rng, 0.0);
  Matrix acc_kernel = acc_method;
  a.matmul_transposed_self_add(g, acc_method);
  kernels::matmul_transposed_self_add(a, g, acc_kernel);
  EXPECT_EQ(acc_method, acc_kernel);

  SparseRowMatrix sa(11, 23);
  for (std::size_t r = 0; r < 11; ++r)
    for (std::size_t c = 0; c < 23; ++c)
      if (a(r, c) != 0.0) sa.append(r, c, a(r, c));
  Matrix s_method;
  sa.matmul_into(b, s_method);
  Matrix s_kernel(11, 9);
  kernels::sparse_gather_matmul_into(sa, b, s_kernel);
  EXPECT_EQ(s_method, s_kernel);
  EXPECT_EQ(s_method, via_method);  // gather == dense under native
}

}  // namespace
}  // namespace drcell
