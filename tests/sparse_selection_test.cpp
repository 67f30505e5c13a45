// The sparse full-width selection forward (rl/qnetwork.h): every network's
// forward_batch over sparse steps equals its dense forward_batch on the
// densified steps bit for bit, on both sides of the LSTM's gather/densify
// threshold; the trainer's greedy and δ-greedy selections built on it pick
// the dense forward's actions from the same draw stream; and a poisoned
// LSTM input row shows in the Q rows on exactly the same samples on both
// paths, so the Q sentinel sees what the dense zero-skip GEMM saw.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/health_monitor.h"
#include "mcs/state_encoder.h"
#include "nn/lstm.h"
#include "rl/dqn_trainer.h"
#include "rl/drqn_qnetwork.h"
#include "rl/mlp_qnetwork.h"
#include "rl/spatial_drqn_qnetwork.h"
#include "test_helpers.h"

namespace drcell {
namespace {

constexpr std::size_t kGridW = 6, kGridH = 5, kCells = kGridW * kGridH;
constexpr std::size_t kHistory = 3;

using NetFactory = std::function<rl::QNetworkPtr(Rng&)>;

struct NamedNet {
  const char* name;
  NetFactory make;
};

std::vector<NamedNet> all_nets() {
  return {
      {"drqn",
       [](Rng& rng) {
         return std::make_unique<rl::DrqnQNetwork>(kCells, kHistory, 8, rng);
       }},
      {"mlp",
       [](Rng& rng) {
         return std::make_unique<rl::MlpQNetwork>(
             kCells, kHistory, std::vector<std::size_t>{12}, rng);
       }},
      {"spatial-drqn",
       [](Rng& rng) {
         return std::make_unique<rl::SpatialDrqnQNetwork>(
             kGridW, kGridH, kHistory, 8, 2, 6, rng);
       }},
  };
}

/// `batch` flat 0/1 states, each cell of each step set with probability
/// `density`; cells listed in `never` are never set.
std::vector<std::vector<double>> random_states(
    std::size_t batch, double density, Rng& rng,
    const std::vector<std::size_t>& never = {}) {
  std::vector<std::vector<double>> states(
      batch, std::vector<double>(kHistory * kCells, 0.0));
  for (auto& s : states)
    for (std::size_t j = 0; j < kHistory; ++j)
      for (std::size_t c = 0; c < kCells; ++c) {
        const bool banned =
            std::find(never.begin(), never.end(), c) != never.end();
        if (rng.bernoulli(density) && !banned) s[j * kCells + c] = 1.0;
      }
  return states;
}

/// The ascending indices of a flat 0/1 state's ones (its one-index list).
std::vector<std::uint32_t> ones_of(const std::vector<double>& state) {
  std::vector<std::uint32_t> ones;
  for (std::size_t i = 0; i < state.size(); ++i)
    if (state[i] != 0.0) ones.push_back(static_cast<std::uint32_t>(i));
  return ones;
}

std::vector<const std::vector<double>*> pointers(
    const std::vector<std::vector<double>>& states) {
  std::vector<const std::vector<double>*> out;
  for (const auto& s : states) out.push_back(&s);
  return out;
}

/// The sparse timestep-major steps of `states` (row b = state b).
std::vector<SparseRowMatrix> sparse_steps(
    const mcs::StateEncoder& encoder,
    const std::vector<std::vector<double>>& states) {
  std::vector<SparseRowMatrix> steps(
      encoder.history_cycles(), SparseRowMatrix(states.size(), kCells));
  for (std::size_t b = 0; b < states.size(); ++b)
    encoder.to_sequence_row(states[b], b, steps);
  return steps;
}

double density_of(const std::vector<SparseRowMatrix>& steps) {
  std::size_t nnz = 0, total = 0;
  for (const auto& s : steps) {
    nnz += s.nonzeros();
    total += s.rows() * s.cols();
  }
  return static_cast<double>(nnz) / static_cast<double>(total);
}

/// Entry-for-entry equality of the bit patterns (distinguishes -0.0 from
/// 0.0 and compares NaN payloads, unlike Matrix::operator==).
void expect_same_bits(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a(r, c)),
                std::bit_cast<std::uint64_t>(b(r, c)))
          << what << " (" << r << ", " << c << ")";
}

// Below and at-or-above nn::Lstm::kSparseGatherMaxDensity: the gather LSTM
// and its densify fallback.
constexpr double kSparseDensity = 0.05;
constexpr double kDenseDensity = 0.5;

TEST(SparseSelectionForward, FullWidthMatchesDenseForwardBitForBit) {
  const mcs::StateEncoder encoder(kCells, kHistory);
  for (const NamedNet& net_spec : all_nets()) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
      for (const double density : {kSparseDensity, kDenseDensity}) {
        Rng net_rng(7);
        rl::QNetworkPtr net = net_spec.make(net_rng);
        Rng data_rng(100 + batch);
        const auto states = random_states(batch, density, data_rng);
        const auto steps = sparse_steps(encoder, states);
        if (density == kSparseDensity)
          ASSERT_LT(density_of(steps), nn::Lstm::kSparseGatherMaxDensity);
        if (density == kDenseDensity)
          ASSERT_GE(density_of(steps), nn::Lstm::kSparseGatherMaxDensity);

        const Matrix q_dense = net->forward_batch(
            testing::to_sequence_batch(encoder, pointers(states)));
        const Matrix& q_sparse = net->forward_batch(steps);
        SCOPED_TRACE(::testing::Message()
                     << net_spec.name << " batch=" << batch
                     << " density=" << density);
        expect_same_bits(q_dense, q_sparse, net_spec.name);
      }
    }
  }
}

TEST(SparseSelectionForward, GreedyActionIsMaskedArgmaxOfDenseForward) {
  const mcs::StateEncoder encoder(kCells, kHistory);
  for (const NamedNet& net_spec : all_nets()) {
    Rng net_rng(11);
    rl::DqnTrainer trainer(net_spec.make(net_rng), rl::DqnOptions{}, 13);
    Rng data_rng(17);
    for (int trial = 0; trial < 24; ++trial) {
      const double density = trial % 2 == 0 ? kSparseDensity : kDenseDensity;
      const auto states = random_states(1, density, data_rng);
      std::vector<std::uint8_t> mask(kCells, 0);
      for (std::size_t c = 0; c < kCells; ++c)
        mask[c] = data_rng.bernoulli(0.6) ? 1 : 0;
      mask[trial % kCells] = 1;
      const Matrix q = trainer.online().forward(
          testing::to_sequence_batch(encoder, pointers(states)));
      EXPECT_EQ(trainer.greedy_action(ones_of(states[0]), mask),
                rl::masked_argmax_row(q, 0, mask))
          << net_spec.name << " trial " << trial;
    }
  }
}

TEST(SparseSelectionForward, SelectActionDrawsTheSameStreamAsBefore) {
  // The δ-greedy draw pattern select_action has always had, replayed on a
  // twin RNG over the dense forward: one bernoulli(ε) per step when a
  // non-greedy selectable action exists (none otherwise), then a uniform
  // index into the ascending non-greedy selectable actions.
  const mcs::StateEncoder encoder(kCells, kHistory);
  const std::uint64_t seed = 23;
  rl::DqnOptions options;
  options.epsilon = rl::EpsilonSchedule(1.0, 0.3, 40);
  Rng net_rng(19);
  rl::DqnTrainer trainer(all_nets()[0].make(net_rng), options, seed);
  Rng oracle(seed);
  (void)trainer.online().clone_architecture(oracle);  // the target's draws

  Rng data_rng(29);
  std::size_t explored = 0, greedy = 0, draw_free = 0;
  for (std::size_t step = 0; step < 120; ++step) {
    const auto states = random_states(1, kSparseDensity, data_rng);
    std::vector<std::uint8_t> mask(kCells, 0);
    if (step % 10 == 9) {
      mask[step % kCells] = 1;  // one selectable action: no draw at all
    } else {
      for (std::size_t c = 0; c < kCells; ++c)
        mask[c] = data_rng.bernoulli(0.5) ? 1 : 0;
      mask[step % kCells] = 1;
    }
    const Matrix q = trainer.online().forward(
        testing::to_sequence_batch(encoder, pointers(states)));
    const double eps = options.epsilon.value(step);
    const std::size_t best = rl::masked_argmax_row(q, 0, mask);
    std::vector<std::size_t> others;
    for (std::size_t a = 0; a < kCells; ++a)
      if (mask[a] && a != best) others.push_back(a);
    std::size_t expected = best;
    if (others.empty()) {
      ++draw_free;
    } else if (oracle.bernoulli(eps)) {
      expected = others[oracle.uniform_index(others.size())];
      ++explored;
    } else {
      ++greedy;
    }

    EXPECT_EQ(trainer.select_action(states[0], mask), expected)
        << "step " << step;
    EXPECT_EQ(trainer.env_steps(), step + 1);
  }
  EXPECT_GT(explored, 0u);
  EXPECT_GT(greedy, 0u);
  EXPECT_GT(draw_free, 0u);
}

/// Whether any step of flat state `s` sets cell `cell`.
bool sets_cell(const std::vector<double>& s, std::size_t cell) {
  for (std::size_t j = 0; j < kHistory; ++j)
    if (s[j * kCells + cell] != 0.0) return true;
  return false;
}

bool row_finite(const Matrix& q, std::size_t r) {
  for (std::size_t c = 0; c < q.cols(); ++c)
    if (!std::isfinite(q(r, c))) return false;
  return true;
}

TEST(SparseSelectionForward, PoisonedInputRowShowsOnBothPathsAlike) {
  // A NaN in the LSTM input-weight row of cell c reaches a sample's Q row
  // iff the sample sets c: the dense GEMM skips the zero inputs, the
  // gather never reads the row. So the Q sentinel trips on both paths when
  // a set cell is poisoned, and on neither when only an unset cell is —
  // that case is left to the HEALTH phase's parameter scan.
  const mcs::StateEncoder encoder(kCells, kHistory);
  const std::size_t unset_cell = kCells - 1;
  for (const double density : {kSparseDensity, kDenseDensity}) {
    Rng data_rng(31);
    const auto states = random_states(16, density, data_rng, {unset_cell});
    std::size_t set_cell = kCells;
    for (std::size_t c = 0; c < unset_cell && set_cell == kCells; ++c)
      if (sets_cell(states[0], c)) set_cell = c;
    ASSERT_LT(set_cell, kCells);

    for (const std::size_t poisoned : {set_cell, unset_cell}) {
      Rng net_rng(37);
      rl::DrqnQNetwork net(kCells, kHistory, 8, net_rng);
      nn::Parameter* wx = net.parameters()[0];
      ASSERT_EQ(wx->value().rows(), kCells);
      wx->mutable_value()(poisoned, 1) =
          std::numeric_limits<double>::quiet_NaN();

      const Matrix q_dense = net.forward_batch(
          testing::to_sequence_batch(encoder, pointers(states)));
      const Matrix q_sparse = net.forward_batch(sparse_steps(encoder, states));
      bool any_set = false;
      for (std::size_t b = 0; b < states.size(); ++b) {
        const bool hit = sets_cell(states[b], poisoned);
        any_set = any_set || hit;
        EXPECT_EQ(row_finite(q_dense, b), !hit)
            << "dense row " << b << " poisoned=" << poisoned;
        EXPECT_EQ(row_finite(q_sparse, b), !hit)
            << "sparse row " << b << " poisoned=" << poisoned;
      }
      EXPECT_EQ(any_set, poisoned == set_cell);

      core::HealthMonitor dense_monitor, sparse_monitor;
      dense_monitor.check_q(q_dense);
      sparse_monitor.check_q(q_sparse);
      const bool expect_trip = poisoned == set_cell;
      EXPECT_EQ(dense_monitor.healthy(), !expect_trip)
          << "density=" << density << " poisoned=" << poisoned;
      EXPECT_EQ(sparse_monitor.healthy(), !expect_trip)
          << "density=" << density << " poisoned=" << poisoned;
      if (expect_trip)
        EXPECT_EQ(sparse_monitor.status(), core::HealthStatus::kNonFiniteQ);
    }
  }
}

}  // namespace
}  // namespace drcell
