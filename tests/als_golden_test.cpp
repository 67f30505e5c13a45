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
// warm_trust_factor of their own RMSE, so the short warm_iterations budget
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

}  // namespace
}  // namespace drcell::cs
