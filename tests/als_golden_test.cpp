// Golden pins of the compressive-sensing arithmetic: CRC-32s of the exact
// bytes MatrixCompletion::infer and loo_column_predictions return on a fixed
// 1000-cell city window. The bit-identity suites compare two paths of the
// same build against each other; these pins compare the build against the
// recorded output, so a ridge-solver rewrite that is fast but numerically
// different fails here in tier-1 instead of only in an end-to-end
// benchmark fingerprint.
//
// The window has the shape the serving workload's LOO quality gate judges:
// 11 fully observed warm-start cycles plus a current cycle sensed at 64
// cells. The engine walks its three fit paths in order — a cold fit, a
// fingerprint hit (the LOO pass over the unchanged window reuses the cached
// factors), and a trusted warm polish (8 more cells sensed in the current
// cycle: the cached factors still predict the window within
// kWarmTrustFactor of their own RMSE, so the short kWarmIterations budget
// runs).
//
// A legitimate change to the ALS or LOO arithmetic must re-record these
// values and say why in its change notes.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "cs/matrix_completion.h"
#include "cs/partial_matrix.h"
#include "data/datasets.h"
#include "util/checksum.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace drcell::cs {
namespace {

std::uint32_t crc_of(std::span<const double> values) {
  return util::crc32(values.data(), values.size() * sizeof(double));
}

TEST(AlsGolden, InferAndLooBytesArePinned) {
  constexpr std::size_t kCells = 1000, kCycles = 12, kCurrent = kCycles - 1;
  const Matrix truth =
      data::make_city_scale_task(25, 40, kCycles, 1000).ground_truth();
  ASSERT_EQ(truth.rows(), kCells);
  EXPECT_EQ(crc_of(truth.data()), 2768493343u) << "city field draw";

  PartialMatrix window(kCells, kCycles);
  for (std::size_t c = 0; c < kCurrent; ++c)
    for (std::size_t r = 0; r < kCells; ++r) window.set(r, c, truth(r, c));
  // 31 is coprime to 1000, so these strided picks are distinct cells.
  const auto sense = [&](std::size_t first, std::size_t count) {
    for (std::size_t k = first; k < first + count; ++k) {
      const std::size_t cell = (7 + 31 * k) % kCells;
      window.set(cell, kCurrent, truth(cell, kCurrent));
    }
  };
  sense(0, 64);

  const MatrixCompletion engine;
  // Cold fit.
  EXPECT_EQ(crc_of(engine.infer(window).data()), 3692232148u)
      << "cold infer";
  // Fingerprint hits: both LOO passes reuse the cold fit's factors.
  EXPECT_EQ(crc_of(engine.loo_column_predictions(window, kCurrent)),
            535199869u)
      << "LOO of the sparse current cycle";
  EXPECT_EQ(crc_of(engine.loo_column_predictions(window, 0)), 3380014250u)
      << "LOO of a fully observed warm cycle";

  // Trusted warm polish over the grown window, then a fingerprint hit.
  sense(64, 8);
  EXPECT_EQ(crc_of(engine.infer(window).data()), 1393869459u)
      << "warm infer";
  EXPECT_EQ(crc_of(engine.loo_column_predictions(window, kCurrent)),
            2794626313u)
      << "LOO after the warm polish";
}

// The slid window the serving workload's LOO gate fits once its 12-cycle
// warm start has rolled forward: 8 warm cycles, 3 past cycles sensed at 64
// cells each, the current cycle at 40 cells, plus a next cycle with nothing
// sensed yet (an empty column). Ten "dead" cells were never sensed (empty
// rows). Six cells each missed one warm cycle, so their rows' observation
// lists, and those six warm columns' lists, are shared with no other index.
// Most cells observe exactly the warm cycles, and the last two warm columns
// observe the same cells. The ALS half-sweeps share one factorisation
// across equal lists; that must leave these bytes unchanged at any worker
// count, including the 3-worker pool, whose chunk bounds cut through runs
// of equal lists in both half-sweeps.
TEST(AlsGolden, MixedPatternWindowIsPinnedAtAnyWorkerCount) {
  constexpr std::size_t kCells = 1000, kCycles = 13, kWarm = 8,
                        kCurrent = 11, kEmpty = 12;
  const Matrix truth =
      data::make_city_scale_task(25, 40, kCycles, 1000).ground_truth();
  const auto dead = [](std::size_t cell) { return cell % 97 == 13; };

  PartialMatrix window(kCells, kCycles);
  for (std::size_t c = 0; c < kWarm; ++c)
    for (std::size_t r = 0; r < kCells; ++r)
      if (!dead(r)) window.set(r, c, truth(r, c));
  for (std::size_t k = 0; k < 6; ++k) {
    const std::size_t cell = 50 + 131 * k;
    ASSERT_FALSE(dead(cell));
    window.clear(cell, k % kWarm);
  }
  // Strided picks (stride coprime to 1000, so distinct cells per cycle);
  // dead cells stay unsensed.
  const auto sense = [&](PartialMatrix& w, std::size_t col, std::size_t offset,
                         std::size_t stride, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t cell = (offset + stride * k) % kCells;
      if (!dead(cell)) w.set(cell, col, truth(cell, col));
    }
  };
  for (std::size_t p = 0; p < 3; ++p)
    sense(window, kWarm + p, 7 + 17 * p, 31, 64);
  sense(window, kCurrent, 3, 37, 40);
  ASSERT_EQ(window.observed_count_in_col(kEmpty), 0u);

  const auto run = [&](std::size_t workers) {
    util::ThreadPool pool(workers);
    MatrixCompletion engine;
    engine.set_thread_pool(&pool);
    std::vector<std::uint32_t> crcs;
    crcs.push_back(crc_of(engine.infer(window).data()));  // cold fit
    for (std::size_t col : {kCurrent, kWarm + 1, std::size_t{0}})
      crcs.push_back(crc_of(engine.loo_column_predictions(window, col)));
    EXPECT_TRUE(engine.loo_column_predictions(window, kEmpty).empty());
    PartialMatrix grown = window;  // 8 more cells sensed this cycle
    sense(grown, kCurrent, 3 + 37 * 40, 37, 8);
    crcs.push_back(crc_of(engine.infer(grown).data()));  // warm resume
    crcs.push_back(crc_of(engine.loo_column_predictions(grown, kCurrent)));
    return crcs;
  };

  // Cold infer; LOO of the current, a past and a warm cycle; warm infer
  // over the grown window; LOO of its current cycle.
  const std::vector<std::uint32_t> pinned{1381493075u, 1001746074u,
                                          1084339220u, 4249897029u,
                                          1514539908u, 1623765483u};
  EXPECT_EQ(run(0), pinned) << "serial pool";
  EXPECT_EQ(run(3), pinned) << "3-worker pool";
}

// The window the metro training workload infers on every sensing step: 23
// fully observed warm cycles plus the current cycle, sensed at 16 cells so
// far, here on a 2,500-cell Nyström field. Nearly every row observes the
// same 23 cycles and every warm column the same cells, so both half-sweeps
// run long runs of equal observation lists. The engine walks the same
// three fit paths as above: a cold fit, a fingerprint hit (a repeated
// infer and a LOO pass over the unchanged window), and a trusted warm
// polish once one more cell is sensed.
TEST(AlsGolden, MetroTrainingWindowIsPinned) {
  constexpr std::size_t kCycles = 24, kCurrent = kCycles - 1;
  const Matrix truth =
      data::make_metro_scale_task(50, 50, kCycles, 20180).ground_truth();
  ASSERT_EQ(truth.rows(), 2500u);
  EXPECT_EQ(crc_of(truth.data()), 694256473u) << "metro field draw";
  const PartialMatrix window = testing::make_metro_training_window(truth, 16);

  const MatrixCompletion engine;
  const Matrix cold = engine.infer(window);
  EXPECT_EQ(crc_of(cold.data()), 1877336032u) << "cold infer";
  // Fingerprint hits.
  EXPECT_EQ(engine.infer(window), cold) << "repeated infer";
  EXPECT_EQ(crc_of(engine.loo_column_predictions(window, kCurrent)),
            210225856u)
      << "LOO of the sparse current cycle";

  // Trusted warm polish after one more sensed cell.
  EXPECT_EQ(crc_of(engine.infer(testing::make_metro_training_window(truth, 17))
                       .data()),
            816488211u)
      << "warm infer";
}

// The serving window after its campaign cycles start to slide it: a cold
// fit at cycle 0 (11 warm cycles plus 64 sensed cells), then the window at
// cycle 1, where every column holds the next cycle. The cached factors now
// describe the wrong cycles, so the engine shifts them by one column,
// solves the newest column's factor from its 64 cells and, the shifted
// factors being trusted, runs the polish budget. A LOO pass reuses that
// fit; the window at cycle 2 slides it once more.
TEST(AlsGolden, SlidServingWindowIsPinned) {
  const Matrix truth =
      data::make_city_scale_task(25, 40, 15, 1000).ground_truth();
  EXPECT_EQ(crc_of(truth.data()), 910122516u) << "city field draw";

  const MatrixCompletion engine;
  EXPECT_EQ(crc_of(engine.infer(testing::make_serving_window(truth, 0, 64))
                       .data()),
            3851756671u)
      << "cold infer";
  const PartialMatrix slid = testing::make_serving_window(truth, 1, 64);
  EXPECT_EQ(crc_of(engine.infer(slid).data()), 1772923246u) << "slid infer";
  EXPECT_EQ(crc_of(engine.loo_column_predictions(slid, slid.cols() - 1)),
            4027396474u)
      << "LOO of the slid window's current cycle";
  EXPECT_EQ(crc_of(engine.infer(testing::make_serving_window(truth, 2, 64))
                       .data()),
            3716992894u)
      << "second slide";
}

}  // namespace
}  // namespace drcell::cs
