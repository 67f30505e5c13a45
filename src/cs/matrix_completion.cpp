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
  // Each row's residuals are independent, so they are computed into a
  // buffer first; the squares are then summed in the same row-major order
  // as one running total.
  const Matrix& values = observed.raw_values();
  const std::size_t rank = row_factors.cols();
  const double* row_data = row_factors.data().data();
  const double* col_data = col_factors.data().data();
  std::vector<double> residual(observed.cols());
  double sq = 0.0;
  const std::size_t count = observed.observed_count();
  for (std::size_t r = 0; r < observed.rows(); ++r) {
    const double* row_f = row_data + r * rank;
    const auto& cols = observed.observed_cols_in_row(r);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      const std::size_t c = cols[e];
      DRCELL_DCHECK(observed.observed(r, c));
      const double* col_f = col_data + c * rank;
      double pred = mu;
      for (std::size_t k = 0; k < rank; ++k) pred += row_f[k] * col_f[k];
      residual[e] = pred - values(r, c);
    }
    for (std::size_t e = 0; e < cols.size(); ++e)
      sq += residual[e] * residual[e];
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
// Above this ratio the cached factors do not describe the window as it
// stands — a window slid by one cycle, an episode reset, a different task.
// A slide gets one more try with the columns shifted (fit()); anything else
// starts cold. A cycle's worth of new entries stays well below it; an
// unrelated window overshoots it by an order of magnitude.
constexpr double kWarmRmseFactor = 4.0;
// Right-hand sides an ALS half-sweep solves as one block: a run of indices
// with equal observation lists is taken this many at a time. Even, so a
// tile padded to an even width still fits.
constexpr std::size_t kTile = 16;

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
// previous chunk ended on the same list, so every chunk carries at least
// the weight of rank + 1 of the half-sweep's longest lists. Only long
// lists — the column half of a cells x cycles window — get coarser chunks
// than the shared policy's. Per observation, the Gram costs far more than
// one index's right-hand side: at rank 5 on a 4-vCPU x86-64 VM, 21-24 ns
// against 2.6-3.0 ns for a right-hand side solved alone and 1.1-1.5 ns for
// one in a full tile (about 8x and 15-20x). The one repeated factorisation
// can therefore cost more than the chunk's right-hand-side work; the floor
// trades that for a column half that still splits across lanes. Floors of
// 3x and 6x this one did not move the warm fit of a 10,000-cell x 24-cycle
// training window measurably on that VM.
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
      } else if (observed.observed_count_in_col(n - 1) >= rank) {
        // The window may have slid by one cycle: cached column c + 1 is
        // this window's column c, and the newest column has no cached
        // factor. Solve it against the cached row factors (the half-sweeps'
        // weighted lambda) and take the shifted factors only if they pass
        // the trust threshold, with the short polish budget. Fewer than
        // `rank` new observations cannot pin that factor down, so such a
        // window goes cold.
        const Matrix& cached_col = warm_->fit.col_factors;
        Matrix slid(n, rank);
        std::copy(cached_col.data().begin() + rank, cached_col.data().end(),
                  slid.data().begin());
        const double* row_data = warm_->fit.row_factors.data().data();
        const Matrix& values = observed.raw_values();
        const auto& newest = observed.observed_rows_in_col(n - 1);
        RidgeSolver solver(rank);
        for (std::size_t r : newest)
          solver.add_row({row_data + r * rank, rank},
                         values(r, n - 1) - result.mu);
        const auto x =
            solver.solve(kLambda * static_cast<double>(newest.size()));
        std::copy(x.begin(), x.end(), slid.data().end() - rank);
        if (observed_rmse(warm_->fit.row_factors, slid, result.mu,
                          observed) <=
            kWarmTrustFactor * warm_->rmse + kConvergenceTol) {
          result.row_factors = warm_->fit.row_factors;
          result.col_factors = std::move(slid);
          warm_resumed = warm_trusted = true;
        }
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
  // Each chunk's right-hand-side block, rank x kTile, allocated with them.
  std::vector<double> blocks(workspaces.size() * rank * kTile);

  // One ALS half-sweep: for every index i, ridge-solve dst's row i against
  // the src-side factors of its observed entries. Solves are independent
  // (dst rows are disjoint, src is read-only during the phase), so chunks of
  // them run concurrently; each chunk owns one RidgeSolver workspace that
  // reads the src rows in place across all of its solves. A chunk factors
  // the Gram once per run of consecutive indices with equal observation
  // lists. Equal lists give bit-equal Grams and factors
  // (linalg/solvers.h), so the sharing changes no output byte. It pays
  // because windows are mostly fully observed warm-start cycles: runs of
  // neighbouring cells observe the same cycles, and so do the warm-start
  // columns.
  //
  // The right-hand sides of up to kTile indices of a run are accumulated
  // as one k-major block, list entries outermost and the tile's indices
  // innermost, and solved together against the held factor. Per index,
  // that is the same multiplies and adds in the same order as one
  // right-hand side at a time; the inner loops just run across the tile,
  // and in the column half-sweep they read one row of the values
  // contiguously.
  const auto half_sweep = [&](const std::vector<std::size_t>& bounds,
                              Matrix& dst, const Matrix& src,
                              auto&& obs_list, auto&& obs_value) {
    const double* src_data = src.data().data();
    // Writes index i's solution, x(k) for k < rank, and its convergence
    // stats.
    const auto store = [&](std::size_t i, auto&& x) {
      double mx = 0.0, dsq = 0.0, fsq = 0.0;
      for (std::size_t k = 0; k < rank; ++k) {
        const double xk = x(k);
        const double d = dst(i, k) - xk;
        mx = std::max(mx, std::fabs(d));
        dsq += d * d;
        fsq += xk * xk;
        dst(i, k) = xk;
      }
      solve_max[i] = mx;
      solve_delta[i] = dsq;
      solve_factor[i] = fsq;
    };
    pool.parallel_for(bounds.size() - 1, [&](std::size_t chunk) {
      RidgeSolver& solver = workspaces[chunk];
      double* block = blocks.data() + chunk * rank * kTile;
      double b[kTile] = {};
      const std::size_t end = bounds[chunk + 1];
      for (std::size_t i = bounds[chunk]; i < end;) {
        // [i, run) is the chunk's next run of equal observation lists.
        const std::vector<std::size_t>& obs = obs_list(i);
        std::size_t run = i + 1;
        while (run < end && obs_list(run) == obs) ++run;
        if (obs.empty()) {
          // No data for these indices in the window; shrink towards the
          // mean (and contribute nothing to the convergence stats).
          for (; i < run; ++i) {
            for (std::size_t k = 0; k < rank; ++k) dst(i, k) = 0.0;
            solve_max[i] = solve_delta[i] = solve_factor[i] = 0.0;
          }
          continue;
        }
        // Weighted-lambda ALS (Zhou et al.): scaling the ridge by the number
        // of observations keeps sparsely observed rows from blowing up to
        // compensate for small factors on the other side.
        const double lambda = kLambda * static_cast<double>(obs.size());
        solver.reset();
        if (run == i + 1) {
          // A list no neighbour shares: one fused pass over it, the
          // cheaper form for a lone solve.
          for (std::size_t j : obs)
            solver.add_row({src_data + j * rank, rank}, obs_value(i, j) - mu);
          const auto x = solver.solve(lambda);
          store(i++, [&](std::size_t k) { return x[k]; });
          continue;
        }
        for (std::size_t j : obs)
          solver.add_gram_row({src_data + j * rank, rank});
        solver.factor(lambda);
        for (std::size_t count; i < run; i += count) {
          count = std::min(kTile, run - i);
          // An odd tile gets one more lane with a zero right-hand side, so
          // the innermost loop runs over whole pairs of lanes.
          const std::size_t width = (count + 1) & ~std::size_t{1};
          if (width > count) b[count] = 0.0;
          std::fill(block, block + rank * width, 0.0);
          for (std::size_t j : obs) {
            for (std::size_t t = 0; t < count; ++t)
              b[t] = obs_value(i + t, j) - mu;
            const double* row = src_data + j * rank;
            for (std::size_t k = 0; k < rank; ++k) {
              double* bk = block + k * width;
              const double rk = row[k];
              for (std::size_t t = 0; t < width; t += 2) {
                bk[t] += rk * b[t];
                bk[t + 1] += rk * b[t + 1];
              }
            }
          }
          solver.solve_factored_block({block, rank * width}, width);
          for (std::size_t t = 0; t < count; ++t)
            store(i + t, [&](std::size_t k) { return block[k * width + t]; });
        }
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
  const Matrix& values = observed.raw_values();
  for (std::size_t r = 0; r < observed.rows(); ++r)
    for (std::size_t c : observed.observed_cols_in_row(r)) {
      DRCELL_DCHECK(observed.observed(r, c));
      est(r, c) = values(r, c);
    }
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
