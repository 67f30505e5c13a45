#include "cs/matrix_completion.h"

#include <algorithm>
#include <cmath>

#include "linalg/solvers.h"
#include "util/chunking.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace drcell::cs {

double observed_rmse(const Matrix& row_factors, const Matrix& col_factors,
                     double mu, const PartialMatrix& observed) {
  double sq = 0.0;
  const std::size_t count = observed.observed_count();
  const std::size_t rank = row_factors.cols();
  for (std::size_t r = 0; r < observed.rows(); ++r) {
    const auto row_f = row_factors.row(r);
    for (std::size_t c : observed.observed_cols_in_row(r)) {
      double pred = mu;
      const auto col_f = col_factors.row(c);
      for (std::size_t k = 0; k < rank; ++k) pred += row_f[k] * col_f[k];
      const double d = pred - observed.value(r, c);
      sq += d * d;
    }
  }
  return count ? std::sqrt(sq / static_cast<double>(count)) : 0.0;
}

namespace {
// L2 regularisation, scaled by each row's / column's observation count.
constexpr double kLambda = 0.005;
// ALS sweep budget of a cold (or untrusted warm) fit.
constexpr std::size_t kIterations = 20;
// Factor initialisation seed.
constexpr std::uint64_t kSeed = 17;
// Early stop on the max factor change of a sweep.
constexpr double kConvergenceTol = 1e-5;
// Sweep budget for a *trusted* warm resume. A window that changed by one
// cycle's observations leaves the cached factors near the new optimum, so a
// few polish sweeps replace the full from-noise budget (incremental ALS).
// The reduced budget applies only when the cached factors predict the new
// window's observations within kWarmTrustFactor of their own converged
// RMSE — i.e. when the init is provably close; resumes between the trust
// and accept thresholds keep the warm init (never worse than noise) but run
// the full sweep budget.
constexpr std::size_t kWarmIterations = 4;
// Below this init/converged RMSE ratio the window barely changed and the
// short kWarmIterations budget is safe (typical per-cycle evolution
// measures 1.1-1.7).
constexpr double kWarmTrustFactor = 2.0;
// Above this ratio the window is treated as unrelated — episode reset,
// slid/relabelled columns, different task — and the solve starts cold. A
// cycle's worth of new entries stays well below it; an unrelated window
// overshoots it by an order of magnitude.
constexpr double kWarmRmseFactor = 4.0;

// Weighted chunking policy for the ALS/LOO fan-outs (shared implementation
// in util/chunking.h; boundaries only group solves, never change the
// arithmetic). The ridge solves here are hundreds of ns each, so the
// default 256-weight floor keeps dispatch overhead in the noise while
// letting small windows still split across lanes.
constexpr util::ChunkPolicy kSolveChunkPolicy{};

std::vector<std::size_t> chunk_bounds(std::size_t count, std::size_t lanes,
                                      std::size_t total_obs,
                                      const std::vector<std::size_t>& weight) {
  return util::chunk_bounds(count, lanes, total_obs, weight,
                            kSolveChunkPolicy);
}

// Chunk bounds of one ALS half-sweep, weighted by observation count. Each
// chunk factors the Gram of its first observation list, even when the
// previous chunk ended on the same list. Per observation, the Gram costs
// about (rank + 1) / 2 times the right-hand side's work, so every chunk
// carries at least the weight of rank + 1 of the half-sweep's longest
// lists: its one repeated factorisation then costs at most about half of
// its right-hand-side work. Only long lists — the column half of a
// cells x cycles window — get coarser chunks than the shared policy's.
std::vector<std::size_t> half_sweep_bounds(
    std::size_t lanes, std::size_t total_obs, std::size_t rank,
    const std::vector<std::size_t>& weight) {
  util::ChunkPolicy policy = kSolveChunkPolicy;
  policy.min_weight_per_chunk =
      std::max(policy.min_weight_per_chunk,
               *std::max_element(weight.begin(), weight.end()) * (rank + 1));
  return util::chunk_bounds(weight.size(), lanes, total_obs, weight, policy);
}
}  // namespace

MatrixCompletion::MatrixCompletion(MatrixCompletionOptions options)
    : options_(options) {
  DRCELL_CHECK(options_.rank > 0);
  DRCELL_CHECK(options_.frobenius_tol >= 0.0);
}

MatrixCompletion::Fit MatrixCompletion::fit(
    const PartialMatrix& observed) const {
  // Robustness drill hook: an armed `als.solve` fault surfaces here as an
  // InjectedFault thrown out of the environment step that requested the
  // inference — the deep mid-wave throw the scheduler's campaign fault
  // domains must contain.
  DRCELL_FAULT_SITE("als.solve", "");
  const std::size_t m = observed.rows();
  const std::size_t n = observed.cols();
  DRCELL_CHECK_MSG(m > 0 && n > 0, "matrix completion on empty matrix");

  Fit result;
  result.mu = observed.observed_mean();
  // The effective rank can never exceed the observation budget, and factors
  // beyond half of either dimension cannot be identified from partial data
  // without overfitting.
  const std::size_t dim_cap = std::max<std::size_t>(1, std::min(m, n) / 2);
  result.rank = std::min(
      {options_.rank, dim_cap,
       std::max<std::size_t>(observed.observed_count(), 1)});
  const std::size_t rank = result.rank;

  result.row_factors = Matrix(m, rank);
  result.col_factors = Matrix(n, rank);
  if (observed.observed_count() == 0) return result;

  // Resume from the previous window's converged factors when they fit this
  // window's shape; otherwise start from random noise. A fingerprint match
  // means the window is unchanged since the cached fit converged — return it
  // outright. The fingerprint itself is cached inside the PartialMatrix, so
  // repeated infer + LOO-gate calls per sensing step share one hash pass.
  const std::uint64_t fingerprint =
      options_.warm_start ? observed.fingerprint() : 0;
  bool warm_resumed = false;
  bool warm_trusted = false;
  if (options_.warm_start) {
    std::lock_guard<std::mutex> lock(warm_mutex_);
    if (warm_.has_value() && warm_->fit.rank == rank &&
        warm_->fit.row_factors.rows() == m &&
        warm_->fit.col_factors.rows() == n) {
      if (warm_->fingerprint == fingerprint) return warm_->fit;
      // A matching shape is not enough: after an episode reset or a window
      // slide the columns hold different cycles, and polishing unrelated
      // factors for a few sweeps would silently under-converge. Resume only
      // if the cached factors still predict the new observations about as
      // well as they predicted their own — and grant the reduced sweep
      // budget only below the (tighter) trust threshold.
      const double init_rmse = observed_rmse(
          warm_->fit.row_factors, warm_->fit.col_factors, result.mu, observed);
      if (init_rmse <= kWarmRmseFactor * warm_->rmse + kConvergenceTol) {
        result.row_factors = warm_->fit.row_factors;
        result.col_factors = warm_->fit.col_factors;
        warm_resumed = true;
        warm_trusted =
            init_rmse <= kWarmTrustFactor * warm_->rmse + kConvergenceTol;
      }
    }
  }
  if (!warm_resumed) {
    // Same draw stream as the hand-rolled normal(0, 1) loops this replaces.
    Rng rng(kSeed);
    result.row_factors = random_normal_matrix(m, rank, rng);
    result.col_factors = random_normal_matrix(n, rank, rng);
  }

  // Per-row/per-column observation counts: the chunk-balancing weights (the
  // observation lists themselves live inside the PartialMatrix).
  std::vector<std::size_t> row_weight(m), col_weight(n);
  for (std::size_t r = 0; r < m; ++r)
    row_weight[r] = observed.observed_count_in_row(r);
  for (std::size_t c = 0; c < n; ++c)
    col_weight[c] = observed.observed_count_in_col(c);

  Matrix& row_f = result.row_factors;
  Matrix& col_f = result.col_factors;
  const double mu = result.mu;

  util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();
  const std::size_t lanes = pool.worker_count() + 1;
  const std::size_t total_obs = observed.observed_count();
  const auto row_bounds = half_sweep_bounds(lanes, total_obs, rank, row_weight);
  const auto col_bounds = half_sweep_bounds(lanes, total_obs, rank, col_weight);

  // Per-solve convergence stats, written by index during the parallel phase
  // and reduced serially in index order afterwards — the sweep result and
  // the stop decision are bit-identical for any worker count.
  std::vector<double> solve_max(std::max(m, n), 0.0);
  std::vector<double> solve_delta(std::max(m, n), 0.0);
  std::vector<double> solve_factor(std::max(m, n), 0.0);

  // One RidgeSolver workspace per chunk, allocated once per fit before the
  // sweeps, so no half-sweep allocates inside its parallel phase. (Built
  // inside each chunk instead, they left the 10,000-cell training
  // benchmark's peak RSS ~10 MB higher in most runs: glibc heap layout.)
  std::vector<RidgeSolver> workspaces(
      std::max(row_bounds.size(), col_bounds.size()) - 1, RidgeSolver(rank));

  // One ALS half-sweep: for every index i, ridge-solve dst's row i against
  // the src-side factors of its observed entries. Solves are independent
  // (dst rows are disjoint, src is read-only during the phase), so chunks of
  // them run concurrently; each chunk owns one RidgeSolver workspace that
  // reads the src rows in place across all of its solves. A chunk factors
  // the Gram only when an index's observation list differs from the list it
  // last factored, and reuses the held factor otherwise; every index still
  // accumulates its own right-hand side and runs its own substitutions.
  // Equal lists give bit-equal Grams and factors (linalg/solvers.h), so the
  // sharing changes no output byte. It pays because windows are mostly
  // fully observed warm-start cycles: runs of neighbouring cells observe the
  // same cycles, and so do the warm-start columns.
  const auto half_sweep = [&](const std::vector<std::size_t>& bounds,
                              Matrix& dst, const Matrix& src,
                              auto&& obs_list, auto&& obs_value) {
    const std::span<const double> src_data = src.data();
    const auto src_row = [&](std::size_t j) {
      return src_data.subspan(j * rank, rank);
    };
    pool.parallel_for(bounds.size() - 1, [&](std::size_t chunk) {
      RidgeSolver& solver = workspaces[chunk];
      const std::vector<std::size_t>* factored = nullptr;
      for (std::size_t i = bounds[chunk]; i < bounds[chunk + 1]; ++i) {
        const std::vector<std::size_t>& obs = obs_list(i);
        if (obs.empty()) {
          // No data for this index in the window; shrink towards the mean
          // (and contribute nothing to the convergence stats, as before).
          for (std::size_t k = 0; k < rank; ++k) dst(i, k) = 0.0;
          solve_max[i] = solve_delta[i] = solve_factor[i] = 0.0;
          continue;
        }
        if (factored != nullptr && *factored == obs) {
          solver.reset_rhs();
          for (std::size_t j : obs)
            solver.add_rhs_row(src_row(j), obs_value(i, j) - mu);
        } else {
          solver.reset();
          for (std::size_t j : obs)
            solver.add_row(src_row(j), obs_value(i, j) - mu);
          // Weighted-lambda ALS (Zhou et al.): scaling the ridge by the
          // number of observations keeps sparsely observed rows from
          // blowing up to compensate for small factors on the other side.
          solver.factor(kLambda * static_cast<double>(obs.size()));
          factored = &obs;
        }
        const auto x = solver.solve_factored();
        double mx = 0.0, dsq = 0.0, fsq = 0.0;
        for (std::size_t k = 0; k < rank; ++k) {
          const double d = dst(i, k) - x[k];
          mx = std::max(mx, std::fabs(d));
          dsq += d * d;
          fsq += x[k] * x[k];
          dst(i, k) = x[k];
        }
        solve_max[i] = mx;
        solve_delta[i] = dsq;
        solve_factor[i] = fsq;
      }
    });
  };

  // The observation lists name only observed entries, so the sweeps read
  // the values unchecked.
  const Matrix& values = observed.raw_values();
  const auto run_sweeps = [&](std::size_t budget) {
    for (std::size_t it = 0; it < budget; ++it) {
      double max_change = 0.0;
      double delta_sq = 0.0;   // Frobenius² of this sweep's factor delta
      double factor_sq = 0.0;  // Frobenius² of the updated factors
      // Update row factors: for each row solve a ridge regression on the
      // column factors of its observed entries.
      half_sweep(
          row_bounds, row_f, col_f,
          [&](std::size_t r) -> const std::vector<std::size_t>& {
            return observed.observed_cols_in_row(r);
          },
          [&](std::size_t r, std::size_t c) { return values(r, c); });
      for (std::size_t r = 0; r < m; ++r) {
        max_change = std::max(max_change, solve_max[r]);
        delta_sq += solve_delta[r];
        factor_sq += solve_factor[r];
      }
      // Update column factors symmetrically.
      half_sweep(
          col_bounds, col_f, row_f,
          [&](std::size_t c) -> const std::vector<std::size_t>& {
            return observed.observed_rows_in_col(c);
          },
          [&](std::size_t c, std::size_t r) { return values(r, c); });
      for (std::size_t c = 0; c < n; ++c) {
        max_change = std::max(max_change, solve_max[c]);
        delta_sq += solve_delta[c];
        factor_sq += solve_factor[c];
      }
      if (max_change < kConvergenceTol) break;
      if (options_.frobenius_tol > 0.0 &&
          std::sqrt(delta_sq) <
              options_.frobenius_tol * std::max(std::sqrt(factor_sq), 1.0))
        break;
    }
  };

  const std::size_t sweep_budget =
      warm_trusted ? kWarmIterations : kIterations;
  run_sweeps(sweep_budget);

  // Cold-solve fallback: a warm resume that failed to produce a usable
  // factorisation — non-finite factors from a pathological cached init, or
  // an armed `als.converge` fault standing in for one — is retried from
  // noise with the full sweep budget instead of poisoning infer() (whose
  // non-finite CHECK would kill the campaign). Identical arithmetic to a
  // never-warmed engine's solve, so the fallback result is bit-identical
  // to a cold engine's on the same window.
  if (warm_resumed &&
      (row_f.has_non_finite() || col_f.has_non_finite() ||
       util::FaultInjection::check("als.converge"))) {
    Rng rng(kSeed);
    row_f = random_normal_matrix(m, rank, rng);
    col_f = random_normal_matrix(n, rank, rng);
    run_sweeps(kIterations);
  }

  if (options_.warm_start) {
    const double final_rmse =
        observed_rmse(row_f, col_f, result.mu, observed);
    std::lock_guard<std::mutex> lock(warm_mutex_);
    warm_ = WarmState{result, fingerprint, final_rmse};
  }
  return result;
}

Matrix MatrixCompletion::infer(const PartialMatrix& observed) const {
  const Fit f = fit(observed);
  Matrix est = f.row_factors.matmul(f.col_factors.transposed());
  est.apply([&f](double x) { return x + f.mu; });
  // Observed entries are known exactly — keep them.
  for (std::size_t r = 0; r < observed.rows(); ++r)
    for (std::size_t c : observed.observed_cols_in_row(r))
      est(r, c) = observed.value(r, c);
  DRCELL_CHECK_MSG(!est.has_non_finite(),
                   "matrix completion produced non-finite values");
  return est;
}

std::vector<double> MatrixCompletion::loo_column_predictions(
    const PartialMatrix& observed, std::size_t col) const {
  DRCELL_CHECK(col < observed.cols());
  const Fit f = fit(observed);
  const std::size_t rank = f.rank;
  const auto& rows_in_col = observed.observed_rows_in_col(col);
  const std::size_t count = rows_in_col.size();
  std::vector<double> predictions(count, 0.0);
  if (count == 0) return predictions;

  // Each per-cell solve costs two ridge systems — one over the held-out
  // cell's other observations, one over the column's remaining observations
  // — so the chunk-balancing weight is the sum of both system heights.
  std::vector<std::size_t> weight(count);
  std::size_t total_weight = 0;
  for (std::size_t i = 0; i < count; ++i) {
    weight[i] = observed.observed_count_in_row(rows_in_col[i]) + count;
    total_weight += weight[i];
  }

  util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();
  const std::size_t lanes = pool.worker_count() + 1;
  const auto bounds = chunk_bounds(count, lanes, total_weight, weight);

  // The held-out solves are mutually independent (the full fit `f` is
  // read-only and prediction i is the only slot index i writes), so chunks
  // of them fan out over the pool exactly like the ALS half-sweeps:
  // results land by index, bit-identical to serial for any worker count.
  pool.parallel_for(bounds.size() - 1, [&](std::size_t chunk) {
    RidgeSolver solver(rank);
    std::vector<double> u(rank), v(rank);
    for (std::size_t idx = bounds[chunk]; idx < bounds[chunk + 1]; ++idx) {
      const std::size_t cell = rows_in_col[idx];
      // Both factors touching the held-out entry are re-solved without it —
      // leaving either at its full-fit value leaks the withheld observation
      // (severely so in sparse windows, where one value can dominate its
      // own cell's row factor) and makes the quality gate overconfident.
      //
      // Row factor of the held-out cell from its *other* observations
      // (column factors fixed):
      const auto& cols_of_row = observed.observed_cols_in_row(cell);
      std::fill(u.begin(), u.end(), 0.0);
      if (cols_of_row.size() > 1) {
        solver.reset();
        for (std::size_t c : cols_of_row)
          if (c != col)
            solver.add_row(f.col_factors.row(c),
                           observed.value(cell, c) - f.mu);
        const auto x = solver.solve(
            kLambda * static_cast<double>(cols_of_row.size() - 1));
        std::copy(x.begin(), x.end(), u.begin());
      }
      // Assessed column's factor without the held-out cell (row factors
      // fixed):
      std::fill(v.begin(), v.end(), 0.0);
      if (count > 1) {
        solver.reset();
        for (std::size_t r : rows_in_col)
          if (r != cell)
            solver.add_row(f.row_factors.row(r), observed.value(r, col) - f.mu);
        const auto x =
            solver.solve(kLambda * static_cast<double>(count - 1));
        std::copy(x.begin(), x.end(), v.begin());
      }
      double pred = f.mu;
      for (std::size_t k = 0; k < rank; ++k) pred += u[k] * v[k];
      predictions[idx] = pred;
    }
  });
  return predictions;
}

}  // namespace drcell::cs
