// Tests of the benchmark's own arithmetic: span self time, the >= 10-beyond
// percentile rule, and the counting backend's transparency.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "counting_backend.h"
#include "linalg/backend.h"
#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "nn/lstm.h"
#include "stats.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

Span make_span(std::uint64_t id, std::uint64_t parent, std::uint32_t thread,
               std::int64_t start, std::int64_t end,
               Layer layer = Layer::kLoo) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.thread = thread;
  s.start_ns = start;
  s.end_ns = end;
  s.layer = layer;
  return s;
}

TEST(SelfTime, NestedChildrenOnOneThread) {
  // root [0,100) with children [10,30) and [50,60); the first child has a
  // grandchild [15,20), which counts against the child, not the root.
  const std::vector<Span> spans = {
      make_span(1, kNoParent, 0, 0, 100, Layer::kWave),
      make_span(2, 1, 0, 10, 30), make_span(3, 2, 0, 15, 20, Layer::kInfer),
      make_span(4, 1, 0, 50, 60)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);
  EXPECT_EQ(self[1], 20 - 5);
  EXPECT_EQ(self[2], 5);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenOnTwoLanesCountOnce) {
  // Children [10,50) on lane 0 and [30,70) on lane 1 overlap on [30,50):
  // together they cover [10,70) = 60 ns of the 100 ns root.
  const std::vector<Span> spans = {
      make_span(1, kNoParent, 0, 0, 100, Layer::kWave),
      make_span(2, 1, 0, 10, 50), make_span(3, 1, 1, 30, 70)};
  EXPECT_EQ(self_times_ns(spans)[0], 40);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {
      make_span(1, kNoParent, 0, 0, 100, Layer::kWave),
      make_span(2, 1, 1, 90, 130)};
  EXPECT_EQ(self_times_ns(spans)[0], 90);
}

TEST(CoveredNs, UnionOfUnsortedIntervals) {
  EXPECT_EQ(covered_ns({{40, 60}, {0, 10}, {5, 20}, {55, 58}}, 0, 100), 40);
  EXPECT_EQ(covered_ns({}, 0, 100), 0);
  EXPECT_EQ(covered_ns({{0, 100}}, 20, 30), 10);
}

TEST(LaneWeighted, SharesSplitAcrossBusyLanesAndSumToCoveredWall) {
  // Lane 0: wave [0,100) with a child loo [20,60). Lane 1: loo [40,80).
  // [0,20) wave alone; [20,40) loo alone on lane 0; [40,60) two loo halves;
  // [60,80) wave + loo; [80,100) wave alone.
  const std::vector<Span> spans = {
      make_span(1, kNoParent, 0, 0, 100, Layer::kWave),
      make_span(2, 1, 0, 20, 60), make_span(3, 1, 1, 40, 80)};
  const auto w = lane_weighted_ns(spans);
  EXPECT_DOUBLE_EQ(w[static_cast<std::size_t>(Layer::kWave)], 20 + 10 + 20);
  EXPECT_DOUBLE_EQ(w[static_cast<std::size_t>(Layer::kLoo)], 20 + 20 + 10);
  double total = 0;
  for (double x : w) total += x;
  EXPECT_DOUBLE_EQ(total, 100);
}

TEST(ScopedSpan, RecordsParentsAcrossThreadsAndNothingWhenDisabled) {
  Tracer::clear();
  { ScopedSpan off(Layer::kRound, 1); }
  EXPECT_TRUE(Tracer::collect().empty());
  Tracer::set_enabled(true);
  {
    ScopedSpan root(Layer::kWave, 7, /*root=*/true);
    { ScopedSpan child(Layer::kLoo, 8); }
    std::thread([] { ScopedSpan worker(Layer::kInfer, 9); }).join();
  }
  Tracer::set_enabled(false);
  const auto spans = Tracer::collect();
  ASSERT_EQ(spans.size(), 3u);
  const Span* root = nullptr;
  for (const auto& s : spans)
    if (s.layer == Layer::kWave) root = &s;
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, kNoParent);
  for (const auto& s : spans)
    if (s.layer != Layer::kWave) {
      EXPECT_EQ(s.parent, root->id);
      EXPECT_GE(s.start_ns, root->start_ns);
      EXPECT_LE(s.end_ns, root->end_ns);
    }
  Tracer::clear();
}

TEST(PercentileRule, P90NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(tail_count(100, 0.90), 10u);
  EXPECT_EQ(tail_count(99, 0.90), 9u);
  EXPECT_EQ(tail_count(1000, 0.99), 10u);
  EXPECT_EQ(tail_count(999, 0.99), 9u);
  EXPECT_EQ(tail_count(20, 0.50), 10u);
  EXPECT_EQ(tail_count(19, 0.50), 9u);  // a median needs 20 samples
  EXPECT_EQ(tail_count(0, 0.90), 0u);
  EXPECT_EQ(tail_count(1, 0.90), 0u);
}

TEST(PercentileRule, NearestRankValuesAndMedian) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT_DOUBLE_EQ(percentile(v, 0.90), 90.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.00), 100.0);
  EXPECT_DOUBLE_EQ(median(v), 50.5);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
}

bool same_bits(const drcell::Matrix& a, const drcell::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

drcell::Matrix random_matrix(std::size_t r, std::size_t c, drcell::Rng& rng,
                             double zero_share = 0.0) {
  drcell::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j)
      m(i, j) = rng.uniform() < zero_share ? 0.0 : rng.uniform(-1.0, 1.0);
  return m;
}

TEST(CountingBackend, OutputsBitIdenticalToNativeAndWorkCounted) {
  CountingBackend::register_around("native");
  const drcell::ComputeBackend& native = *drcell::BackendRegistry::find("native");
  const drcell::ComputeBackend& counting =
      *drcell::BackendRegistry::find(CountingBackend::kName);
  CountingBackend::reset();
  drcell::Rng rng(42);
  const auto a = random_matrix(13, 37, rng, 0.3);
  const auto b = random_matrix(37, 21, rng);
  const auto bt = random_matrix(21, 37, rng);
  const auto c = random_matrix(13, 21, rng);

  drcell::Matrix o1(13, 21), o2(13, 21);
  native.matmul_into(a, b, o1);
  counting.matmul_into(a, b, o2);
  EXPECT_TRUE(same_bits(o1, o2));

  native.matmul_transposed_other_into(a, bt, o1);
  counting.matmul_transposed_other_into(a, bt, o2);
  EXPECT_TRUE(same_bits(o1, o2));

  drcell::Matrix s1(37, 21), s2(37, 21);
  native.matmul_transposed_self_add(a, c, s1);
  counting.matmul_transposed_self_add(a, c, s2);
  EXPECT_TRUE(same_bits(s1, s2));

  drcell::SparseRowMatrix sp(13, 37);
  for (std::size_t r = 0; r < 13; ++r)
    for (std::size_t k = r % 3; k < 37; k += 5) sp.append(r, k, rng.uniform());
  drcell::Matrix g1(13, 21), g2(13, 21);
  native.sparse_matmul_into(sp, b, g1);
  counting.sparse_matmul_into(sp, b, g2);
  EXPECT_TRUE(same_bits(g1, g2));
  drcell::Matrix t1(37, 21), t2(37, 21);
  native.sparse_matmul_transposed_self_add(sp, c, t1);
  counting.sparse_matmul_transposed_self_add(sp, c, t2);
  EXPECT_TRUE(same_bits(t1, t2));

  const std::size_t batch = 5, hidden = 8;
  const auto z = random_matrix(batch, 4 * hidden, rng);
  const auto c_prev = random_matrix(batch, hidden, rng);
  drcell::Matrix gates[2], cell[2], tanh_c[2], h[2];
  for (int i = 0; i < 2; ++i) {
    gates[i].resize(batch, 4 * hidden);
    cell[i].resize(batch, hidden);
    tanh_c[i].resize(batch, hidden);
    h[i].resize(batch, hidden);
  }
  native.lstm_gate_forward(z, &c_prev, gates[0], cell[0], tanh_c[0], h[0]);
  counting.lstm_gate_forward(z, &c_prev, gates[1], cell[1], tanh_c[1], h[1]);
  EXPECT_TRUE(same_bits(gates[0], gates[1]));
  EXPECT_TRUE(same_bits(h[0], h[1]));
  const auto dh = random_matrix(batch, hidden, rng);
  const auto dc_next = random_matrix(batch, hidden, rng);
  drcell::Matrix dz[2], dc_prev[2];
  for (int i = 0; i < 2; ++i) {
    dz[i].resize(batch, 4 * hidden);
    dc_prev[i].resize(batch, hidden);
  }
  native.lstm_gate_backward(gates[0], tanh_c[0], &c_prev, dh, dc_next, dz[0],
                            dc_prev[0]);
  counting.lstm_gate_backward(gates[1], tanh_c[1], &c_prev, dh, dc_next, dz[1],
                              dc_prev[1]);
  EXPECT_TRUE(same_bits(dz[0], dz[1]));
  EXPECT_TRUE(same_bits(dc_prev[0], dc_prev[1]));

  const auto work = CountingBackend::totals();
  for (const KernelWork& w : work) EXPECT_EQ(w.calls, 1u);
  const auto& mm = work[static_cast<std::size_t>(Kernel::kMatmul)];
  EXPECT_DOUBLE_EQ(mm.flop, 2.0 * 13 * 37 * 21);
  EXPECT_DOUBLE_EQ(mm.bytes, 8.0 * (13 * 37 + 37 * 21 + 13 * 21));
  const auto& tself = work[static_cast<std::size_t>(Kernel::kMatmulTselfAdd)];
  EXPECT_DOUBLE_EQ(tself.flop, 2.0 * 13 * 37 * 21);
  const auto& sparse = work[static_cast<std::size_t>(Kernel::kSparseMatmul)];
  EXPECT_DOUBLE_EQ(sparse.flop, 2.0 * static_cast<double>(sp.nonzeros()) * 21);
}

TEST(CountingBackend, ActiveCountingBackendKeepsLstmTrainingBitIdentical) {
  CountingBackend::register_around("native");
  auto run = [](const char* backend) {
    drcell::BackendRegistry::set_active(backend);
    drcell::Rng rng(7);
    drcell::nn::Lstm lstm(12, 6, rng);
    std::vector<drcell::Matrix> xs;
    for (int t = 0; t < 3; ++t) xs.push_back(random_matrix(4, 12, rng, 0.5));
    drcell::Matrix out = lstm.forward(xs);
    drcell::BackendRegistry::set_active("native");
    return out;
  };
  CountingBackend::reset();
  const auto native = run("native");
  const auto counted = run(CountingBackend::kName);
  EXPECT_TRUE(same_bits(native, counted));
  EXPECT_GT(CountingBackend::totals()[static_cast<std::size_t>(
                                          Kernel::kLstmGateForward)]
                .calls,
            0u);
}

}  // namespace
}  // namespace perfbench
