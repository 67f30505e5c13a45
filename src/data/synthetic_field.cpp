#include "data/synthetic_field.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "linalg/decompositions.h"
#include "util/fastmath.h"
#include "util/statistics.h"
#include "util/thread_pool.h"

namespace drcell::data {

namespace {

/// Diagonal jitter added to the landmark Gram matrix W before its Cholesky:
/// smooth RBF Gram matrices over hundreds of landmarks are numerically
/// rank-deficient (eigenvalues decay below machine precision), so without a
/// ridge the factorisation fails on rounding noise (~eps·k ≈ 6e-14 at
/// k = 256). 1e-8 dominates that noise while perturbing the approximated
/// covariance by O(1e-8) — far below the covariance-error bound the test
/// asserts and the nugget any field carries.
constexpr double kNystromJitter = 1e-8;

/// The RBF kernel exponent −d²/(2ℓ²) between two cells — the single
/// definition of the kernel form shared by the exact Cholesky and both
/// Nyström blocks, so a future kernel change cannot desynchronise the
/// exact and low-rank covariances.
double rbf_exponent(const cs::CellCoord& a, const cs::CellCoord& b,
                    double ell2) {
  const double d = cs::euclidean_distance(a, b);
  return -d * d / (2.0 * ell2);
}

}  // namespace

std::size_t SyntheticFieldGenerator::SpatialKeyHash::operator()(
    const SpatialKey& k) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  mix(std::bit_cast<std::uint64_t>(k.spatial_length));
  mix(std::bit_cast<std::uint64_t>(k.nugget));
  mix(k.low_rank ? 1 : 0);
  mix(k.landmarks);
  return static_cast<std::size_t>(h);
}

namespace {

/// FNV-1a over the raw coordinate doubles — the geometry half of the shared
/// registry's hash (equality still compares element-wise, so the hash only
/// routes to a bucket and can never alias two geometries into one entry).
std::size_t hash_coords(const std::vector<cs::CellCoord>& coords) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  mix(coords.size());
  for (const cs::CellCoord& c : coords) {
    mix(std::bit_cast<std::uint64_t>(c.x));
    mix(std::bit_cast<std::uint64_t>(c.y));
  }
  return static_cast<std::size_t>(h);
}

}  // namespace

bool SyntheticFieldGenerator::SharedKey::operator==(
    const SharedKey& o) const {
  if (!(spatial == o.spatial) || coord_hash != o.coord_hash) return false;
  if (coords == o.coords) return true;  // same generator's vector
  const auto& a = *coords;
  const auto& b = *o.coords;
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].x != b[i].x || a[i].y != b[i].y) return false;
  return true;
}

std::size_t SyntheticFieldGenerator::SharedKeyHash::operator()(
    const SharedKey& k) const {
  return k.coord_hash ^ (SpatialKeyHash{}(k.spatial) * 0x9e3779b97f4a7c15ULL);
}

/// The process-wide factor registry (see shared_factor_cache_hits). One
/// mutex guards map and counters; held across builds so a concurrent
/// same-config request waits for the single factorisation instead of
/// duplicating it.
struct SyntheticFieldGenerator::SharedRegistry {
  std::mutex mutex;
  std::unordered_map<SharedKey, std::shared_ptr<const SpatialFactor>,
                     SharedKeyHash>
      factors;
  std::size_t hits = 0;
  std::size_t builds = 0;  // cold factorisations, both tiers
};

SyntheticFieldGenerator::SharedRegistry&
SyntheticFieldGenerator::shared_registry() {
  static SharedRegistry registry;
  return registry;
}

std::size_t SyntheticFieldGenerator::shared_factor_cache_hits() {
  SharedRegistry& r = shared_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.hits;
}

std::size_t SyntheticFieldGenerator::shared_factor_cache_builds() {
  SharedRegistry& r = shared_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.builds;
}

void SyntheticFieldGenerator::reset_shared_factor_cache() {
  SharedRegistry& r = shared_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.factors.clear();
  r.hits = 0;
  r.builds = 0;
}

SyntheticFieldGenerator::SyntheticFieldGenerator(
    std::vector<cs::CellCoord> coords)
    : coords_(std::make_shared<const std::vector<cs::CellCoord>>(
          std::move(coords))),
      coord_hash_(hash_coords(*coords_)) {
  DRCELL_CHECK_MSG(!coords_->empty(), "generator needs cell coordinates");
}

Matrix SyntheticFieldGenerator::spatial_cholesky(
    const FieldParams& params) const {
  const std::size_t m = coords_->size();
  Matrix k(m, m);
  const double ell2 = params.spatial_length * params.spatial_length;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j)
      k(i, j) = (1.0 - params.nugget) *
                std::exp(rbf_exponent((*coords_)[i], (*coords_)[j], ell2));
    k(i, i) += params.nugget;
  }
  return Cholesky(k).l;
}

std::vector<std::size_t> SyntheticFieldGenerator::landmark_indices(
    std::size_t k) const {
  // Deterministic farthest-point sampling: start from cell 0, then
  // repeatedly add the cell farthest from the chosen set (lowest index on
  // ties). Covers irregular layouts evenly in O(m·k).
  const std::size_t m = coords_->size();
  std::vector<std::size_t> landmarks;
  landmarks.reserve(k);
  std::vector<double> dist2(m, std::numeric_limits<double>::infinity());
  std::size_t next = 0;
  for (std::size_t t = 0; t < k; ++t) {
    landmarks.push_back(next);
    const cs::CellCoord& c = (*coords_)[next];
    std::size_t best = 0;
    double best_d2 = -1.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double dx = (*coords_)[i].x - c.x;
      const double dy = (*coords_)[i].y - c.y;
      const double d2 = dx * dx + dy * dy;
      if (d2 < dist2[i]) dist2[i] = d2;
      if (dist2[i] > best_d2) {
        best_d2 = dist2[i];
        best = i;
      }
    }
    next = best;
  }
  return landmarks;
}

Matrix SyntheticFieldGenerator::build_nystrom_factor(
    const FieldParams& params) const {
  const std::size_t m = coords_->size();
  const std::size_t k = std::min(params.nystrom_landmarks, m);
  DRCELL_CHECK_MSG(k > 0, "Nyström factor needs at least one landmark");
  const std::vector<std::size_t> landmarks = landmark_indices(k);
  const double ell2 = params.spatial_length * params.spatial_length;
  const double amp = 1.0 - params.nugget;

  util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();

  // Cross-kernel C = K(cells, landmarks): fill the RBF exponents, then a
  // fastmath exp pass and the amplitude scale, pooled per row. The fastmath
  // kernels are strictly elementwise (identical IEEE-754 ops per element
  // regardless of array extent), so the per-row passes are bit-identical to
  // the old whole-block passes — and to any worker count. (The exact branch
  // keeps std::exp so its bit-stream is unchanged.)
  Matrix c(m, k);
  pool.parallel_for(m, [&](std::size_t i) {
    const auto crow = c.row(i);
    for (std::size_t j = 0; j < k; ++j)
      crow[j] = rbf_exponent((*coords_)[i], (*coords_)[landmarks[j]], ell2);
    fastmath::exp_inplace(crow);
    for (std::size_t j = 0; j < k; ++j) crow[j] *= amp;
  });

  // Landmark Gram W (+ jitter ridge) and its Cholesky.
  Matrix w(k, k);
  for (std::size_t a = 0; a < k; ++a)
    for (std::size_t b = 0; b < k; ++b)
      w(a, b) =
          rbf_exponent((*coords_)[landmarks[a]], (*coords_)[landmarks[b]], ell2);
  fastmath::exp_inplace(w.data());
  w *= amp;
  for (std::size_t a = 0; a < k; ++a) w(a, a) += kNystromJitter * amp;
  const Cholesky chol(w);
  const Matrix& lw = chol.l;

  // F = C·Lw⁻ᵀ by forward substitution per row: F·Fᵀ = C·W⁻¹·Cᵀ, the
  // Nyström approximation of the smooth kernel. O(m·k²/2). Rows are
  // independent (each reads only its own C row and the shared Lw), so they
  // fan out index-exclusively — the dominant cost of the 10k cold build.
  Matrix f(m, k);
  pool.parallel_for(m, [&](std::size_t i) {
    const auto crow = c.row(i);
    const auto frow = f.row(i);
    for (std::size_t t = 0; t < k; ++t) {
      double s = crow[t];
      for (std::size_t u = 0; u < t; ++u) s -= lw(t, u) * frow[u];
      frow[t] = s / lw(t, t);
    }
  });
  return f;
}

std::shared_ptr<const SyntheticFieldGenerator::SpatialFactor>
SyntheticFieldGenerator::spatial_factor(const FieldParams& params) const {
  DRCELL_CHECK(params.spatial_length > 0.0);
  DRCELL_CHECK(params.nugget > 0.0 && params.nugget <= 1.0);
  const bool low_rank = coords_->size() > params.nystrom_threshold;
  const SpatialKey key{params.spatial_length, params.nugget, low_rank,
                       low_rank ? params.nystrom_landmarks : 0};
  const SharedKey shared_key{coords_, coord_hash_, key};
  SharedRegistry& r = shared_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  if (const auto it = r.factors.find(shared_key); it != r.factors.end()) {
    ++r.hits;
    return it->second;
  }
  auto factor = std::make_shared<SpatialFactor>();
  factor->low_rank = key.low_rank;
  if (key.low_rank)
    factor->f = build_nystrom_factor(params);
  else
    factor->dense_l = spatial_cholesky(params);
  ++r.builds;
  return r.factors.emplace(shared_key, std::move(factor)).first->second;
}

std::shared_ptr<const Matrix> SyntheticFieldGenerator::nystrom_factor(
    const FieldParams& params) const {
  // Reject exact-path params before spatial_factor() would pay the O(m³)
  // dense factorisation (and cache it) only to throw.
  DRCELL_CHECK_MSG(coords_->size() > params.nystrom_threshold,
                   "params select the exact path (cells <= nystrom_threshold)");
  std::shared_ptr<const SpatialFactor> factor = spatial_factor(params);
  const Matrix* f = &factor->f;
  return std::shared_ptr<const Matrix>(std::move(factor), f);
}

Matrix SyntheticFieldGenerator::draw_modes(const FieldParams& params,
                                           Rng& rng) const {
  DRCELL_CHECK(params.num_modes > 0);
  const std::size_t m = coords_->size();
  // Held for the whole draw, so a concurrent registry reset cannot free it.
  const std::shared_ptr<const SpatialFactor> factor = spatial_factor(params);
  util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();
  Matrix modes(m, params.num_modes);
  if (!factor->low_rank) {
    // Exact path: the draws stay serial from the caller's rng, so the
    // stream — and therefore every sub-threshold dataset — is bit-identical
    // to the pre-Nyström generator. Only the per-draw lower-triangular
    // matvec fans out (index-exclusive rows, deterministic per-row sums).
    const Matrix& l = factor->dense_l;
    std::vector<double> eta(m);
    for (std::size_t r = 0; r < params.num_modes; ++r) {
      for (double& e : eta) e = rng.normal();
      pool.parallel_for(m, [&](std::size_t i) {
        double s = 0.0;
        for (std::size_t j = 0; j <= i; ++j) s += l(i, j) * eta[j];
        modes(i, r) = s;
      });
    }
    return modes;
  }
  // Nyström path: smooth part F·u_r with u_r ~ N(0, I_k) — covariance
  // F·Fᵀ ≈ (1 − nugget)·K_rbf — plus the iid nugget component per cell.
  // The Gaussian streams stay serial from the caller's rng in the exact
  // pre-PR-9 order (u_r, then the per-cell nuggets, mode by mode), so every
  // metro-tier dataset is bit-identical to what PR 5-8 generated — the
  // metro training/acceptance gates keep their tuned fields. Only the
  // rng-free m×k dot pass fans out over the pool (index-exclusive rows),
  // which is where the per-draw time goes; the result is therefore also
  // bit-identical for any worker count.
  const Matrix& f = factor->f;
  const std::size_t k = f.cols();
  const double nugget_sd = std::sqrt(params.nugget);
  std::vector<double> u(k);
  for (std::size_t r = 0; r < params.num_modes; ++r) {
    for (double& v : u) v = rng.normal();
    pool.parallel_for(m, [&](std::size_t i) {
      const auto frow = f.row(i);
      double s = 0.0;
      for (std::size_t j = 0; j < k; ++j) s += frow[j] * u[j];
      modes(i, r) = s;
    });
    for (std::size_t i = 0; i < m; ++i)
      modes(i, r) += nugget_sd * rng.normal();
  }
  return modes;
}

Matrix SyntheticFieldGenerator::draw_coefficients(const FieldParams& params,
                                                  std::size_t cycles,
                                                  Rng& rng) {
  DRCELL_CHECK(cycles > 0);
  DRCELL_CHECK(params.temporal_ar1 >= 0.0 && params.temporal_ar1 < 1.0);
  DRCELL_CHECK(params.mode_decay > 0.0 && params.mode_decay <= 1.0);
  const double phi = params.temporal_ar1;
  const double innov = std::sqrt(1.0 - phi * phi);
  Matrix coeffs(params.num_modes, cycles);
  double weight = 1.0;
  for (std::size_t r = 0; r < params.num_modes; ++r) {
    double a = rng.normal();
    for (std::size_t t = 0; t < cycles; ++t) {
      if (t > 0) a = phi * a + innov * rng.normal();
      coeffs(r, t) = weight * a;
    }
    weight *= params.mode_decay;
  }
  return coeffs;
}

Matrix SyntheticFieldGenerator::assemble(const FieldParams& params,
                                         const Matrix& modes,
                                         const Matrix& coefficients,
                                         Rng& rng) {
  DRCELL_CHECK(params.cycles_per_day > 0.0);
  DRCELL_CHECK(params.noise_sd >= 0.0);
  DRCELL_CHECK(params.noise_heterogeneity >= 1.0);
  const std::size_t m = modes.rows();
  const std::size_t cycles = coefficients.cols();

  // Per-cell noise scales (log-uniform around noise_sd).
  std::vector<double> noise_scale(m, params.noise_sd);
  if (params.noise_sd > 0.0 && params.noise_heterogeneity > 1.0) {
    const double log_h = std::log(params.noise_heterogeneity);
    for (double& s : noise_scale)
      s = params.noise_sd * std::exp(rng.uniform(-log_h, log_h));
  }

  Matrix latent = modes.matmul(coefficients);  // m x cycles, rank num_modes
  const double two_pi = 6.283185307179586;
  for (std::size_t t = 0; t < cycles; ++t) {
    const double diurnal =
        params.diurnal_amplitude *
        std::sin(two_pi * static_cast<double>(t) / params.cycles_per_day +
                 params.diurnal_phase);
    for (std::size_t i = 0; i < m; ++i) {
      const double noise =
          noise_scale[i] > 0.0 ? rng.normal(0.0, noise_scale[i]) : 0.0;
      latent(i, t) += diurnal + noise;
    }
  }

  // Standardise empirically so finalize() hits the target moments.
  RunningStats stats;
  for (double x : latent.data()) stats.add(x);
  const double mu = stats.mean();
  const double sd = stats.stddev() > 1e-12 ? stats.stddev() : 1.0;
  latent.apply([mu, sd](double x) { return (x - mu) / sd; });
  return latent;
}

Matrix SyntheticFieldGenerator::finalize(const FieldParams& params,
                                         Matrix latent) {
  DRCELL_CHECK(params.stddev > 0.0);
  if (!params.lognormal) {
    latent.apply([&](double x) { return params.mean + params.stddev * x; });
    return latent;
  }
  // Log-normal warp with exact target moments:
  // sigma² = ln(1 + (std/mean)²), mu = ln(mean) - sigma²/2.
  DRCELL_CHECK_MSG(params.mean > 0.0, "lognormal fields need a positive mean");
  const double cv = params.stddev / params.mean;
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(params.mean) - 0.5 * sigma2;
  const double sigma = std::sqrt(sigma2);
  latent.apply([&](double x) { return std::exp(mu + sigma * x); });
  return latent;
}

Matrix SyntheticFieldGenerator::generate(const FieldParams& params,
                                         std::size_t cycles, Rng& rng) const {
  const Matrix modes = draw_modes(params, rng);
  const Matrix coeffs = draw_coefficients(params, cycles, rng);
  return finalize(params, assemble(params, modes, coeffs, rng));
}

std::pair<Matrix, Matrix> SyntheticFieldGenerator::generate_correlated_pair(
    const FieldParams& first, const FieldParams& second, double rho,
    std::size_t cycles, Rng& rng) const {
  DRCELL_CHECK(rho >= -1.0 && rho <= 1.0);
  DRCELL_CHECK_MSG(first.num_modes == second.num_modes,
                   "correlated tasks must share the latent rank");
  // Shared geography: one set of spatial modes for both signals.
  const Matrix modes = draw_modes(first, rng);
  const Matrix coeffs_a = draw_coefficients(first, cycles, rng);
  Matrix coeffs_b = draw_coefficients(second, cycles, rng);
  const double own = std::sqrt(1.0 - rho * rho);
  for (std::size_t i = 0; i < coeffs_b.data().size(); ++i)
    coeffs_b.data()[i] = rho * coeffs_a.data()[i] + own * coeffs_b.data()[i];

  Rng rng_a = rng.fork();
  Rng rng_b = rng.fork();
  return {finalize(first, assemble(first, modes, coeffs_a, rng_a)),
          finalize(second, assemble(second, modes, coeffs_b, rng_b))};
}

std::vector<cs::CellCoord> grid_coords(std::size_t rows, std::size_t cols,
                                       double cell_w, double cell_h) {
  DRCELL_CHECK(rows > 0 && cols > 0 && cell_w > 0.0 && cell_h > 0.0);
  std::vector<cs::CellCoord> out;
  out.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      out.push_back({(static_cast<double>(c) + 0.5) * cell_w,
                     (static_cast<double>(r) + 0.5) * cell_h});
  return out;
}

}  // namespace drcell::data
