#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/check.h"
#include "util/checksum.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/statistics.h"
#include "util/table.h"

namespace drcell {
namespace {

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(DRCELL_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(DRCELL_CHECK(1 == 2), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    DRCELL_CHECK_MSG(false, "custom context");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(3);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), CheckError);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.5));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.5, 0.1);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(Statistics, MeanAndVariance) {
  const std::vector<double> xs{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(xs), 4.0);
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Statistics, PearsonCorrelationExtremes) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys{2.0, 4.0, 6.0, 8.0};
  std::vector<double> neg(ys.rbegin(), ys.rend());
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(xs, neg), -1.0, 1e-12);
  const std::vector<double> constant{5.0, 5.0, 5.0, 5.0};
  EXPECT_EQ(pearson_correlation(xs, constant), 0.0);
}

// Φ(x), the large-dof limit of Student's t.
double standard_normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

TEST(Statistics, StudentTCdfKnownValues) {
  // t = 0 is the median for any dof.
  EXPECT_NEAR(student_t_cdf(0.0, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(student_t_cdf(0.0, 30.0), 0.5, 1e-12);
  // dof = 1 is the Cauchy distribution: CDF(t) = 1/2 + atan(t)/pi.
  EXPECT_NEAR(student_t_cdf(1.0, 1.0), 0.75, 1e-9);
  EXPECT_NEAR(student_t_cdf(-1.0, 1.0), 0.25, 1e-9);
  // Large dof converges to the standard normal.
  EXPECT_NEAR(student_t_cdf(1.96, 1e6), standard_normal_cdf(1.96), 1e-4);
  // Symmetry.
  EXPECT_NEAR(student_t_cdf(0.7, 5.0) + student_t_cdf(-0.7, 5.0), 1.0, 1e-10);
}

TEST(Statistics, StudentTCdfMonotone) {
  double prev = 0.0;
  for (double t = -5.0; t <= 5.0; t += 0.25) {
    const double v = student_t_cdf(t, 4.0);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Statistics, StudentTCdfHeavierTailsThanNormal) {
  // For small dof, more mass beyond 2 sigma than the normal.
  EXPECT_GT(1.0 - student_t_cdf(2.0, 3.0), 1.0 - standard_normal_cdf(2.0));
}

TEST(Statistics, StudentTCdfRejectsBadDof) {
  EXPECT_THROW(student_t_cdf(1.0, 0.0), CheckError);
}

TEST(Statistics, LogGammaMatchesFactorials) {
  // Γ(n) = (n-1)!
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-10);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-9);
  EXPECT_NEAR(log_gamma(11.0), std::log(3628800.0), 1e-8);
  // Γ(1/2) = sqrt(pi)
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(3.14159265358979), 1e-9);
}

TEST(Statistics, IncompleteBetaUniformCase) {
  // Beta(1,1) is uniform: I_x(1,1) = x.
  for (double x : {0.0, 0.2, 0.5, 0.9, 1.0})
    EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-10);
}

TEST(Statistics, IncompleteBetaSymmetry) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(incomplete_beta(2.5, 4.0, 0.3),
              1.0 - incomplete_beta(4.0, 2.5, 0.7), 1e-10);
}

TEST(Statistics, IncompleteBetaKnownValue) {
  // Beta(2,2) CDF: 3x² - 2x³.
  const double x = 0.4;
  EXPECT_NEAR(incomplete_beta(2.0, 2.0, x), 3 * x * x - 2 * x * x * x, 1e-10);
}

TEST(Csv, WriteEscapesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_row(std::vector<std::string>{"plain", "with,comma", "with\"quote",
                                       "multi\nline"});
  EXPECT_EQ(out.str(),
            "plain,\"with,comma\",\"with\"\"quote\",\"multi\nline\"\n");
}

TEST(Csv, RoundTripPreservesFields) {
  std::ostringstream out;
  CsvWriter w(out);
  const std::vector<std::string> row{"a,b", "c\"d", "e\nf", "", "plain"};
  w.write_row(row);
  const auto rows = CsvReader::parse(out.str());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], row);
}

TEST(Csv, ParsesMultipleRowsAndCrlf) {
  const auto rows = CsvReader::parse("a,b\r\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, LastLineWithoutNewline) {
  const auto rows = CsvReader::parse("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(CsvReader::parse("\"open"), CheckError);
}

TEST(Csv, NumericRowRoundTrip) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_row({"1.5", "-2.25", "1e-17"});
  const auto rows = CsvReader::parse(out.str());
  ASSERT_EQ(rows.size(), 1u);
  const auto vals = parse_double_row(rows[0]);
  EXPECT_DOUBLE_EQ(vals[0], 1.5);
  EXPECT_DOUBLE_EQ(vals[1], -2.25);
  EXPECT_DOUBLE_EQ(vals[2], 1e-17);
}

TEST(Csv, MalformedNumberThrows) {
  EXPECT_THROW(parse_double_row({"12abc"}), CheckError);
  EXPECT_THROW(parse_double_row({""}), CheckError);
}

TEST(Table, RendersAlignedColumns) {
  TablePrinter t({"method", "cells"});
  t.add_row({"DR-Cell", "12.84"});
  t.add_row("QBC", {13.79}, 2);
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("DR-Cell"), std::string::npos);
  EXPECT_NE(s.find("13.79"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, FormatDoublePrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Checksum, Crc32MatchesStandardCheckValue) {
  // The IEEE 802.3 check value every CRC-32 implementation must reproduce.
  const char msg[] = "123456789";
  EXPECT_EQ(util::crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32(nullptr, 0), 0u);
}

TEST(Checksum, Crc32ChainsPartialComputations) {
  const std::string payload = "the DRCK v2 checkpoint payload";
  const std::uint32_t whole = util::crc32(payload.data(), payload.size());
  for (std::size_t split : {std::size_t{0}, std::size_t{7}, payload.size()}) {
    const std::uint32_t head = util::crc32(payload.data(), split);
    EXPECT_EQ(util::crc32(payload.data() + split, payload.size() - split,
                          head),
              whole);
  }
}

TEST(Checksum, Crc32SeesEveryBitFlip) {
  std::string payload = "sensitive bytes";
  const std::uint32_t clean = util::crc32(payload.data(), payload.size());
  for (std::size_t bit : {std::size_t{0}, std::size_t{37},
                          8 * payload.size() - 1}) {
    payload[bit / 8] = static_cast<char>(payload[bit / 8] ^ (1u << (bit % 8)));
    EXPECT_NE(util::crc32(payload.data(), payload.size()), clean);
    payload[bit / 8] = static_cast<char>(payload[bit / 8] ^ (1u << (bit % 8)));
  }
}

}  // namespace
}  // namespace drcell
