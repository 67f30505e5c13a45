// Compressive-sensing data inference via low-rank matrix completion.
//
// This is the de facto inference algorithm of Sparse MCS (Definition 5 of
// the paper, citing CCS-TA / SPACE-TA): the cells x cycles sensing matrix
// of an urban field is approximately low-rank, so the unsensed entries are
// recovered by fitting D ≈ mean + Uᵀ V on the observed entries with a
// regularised alternating-least-squares factorisation.
//
// The solver is warm-started: each fit caches its converged factors. A fit
// over an unchanged window (same fingerprint) returns the cached fit
// outright. A fit over a same-shaped window resumes from the cached factors
// when they still predict its observations about as well as their own (the
// trust guard in matrix_completion.cpp) and then runs a short polish budget
// of 4 sweeps instead of the cold 20; a resume the guard accepts but does
// not trust keeps the warm init and runs the full budget.
//
// A window that slid by one cycle fails that guard, because each cached
// column factor belongs to the cycle before. When the guard rejects and the
// newest column holds at least `rank` observations, the engine tries the
// slid resume: the cached row factors, cached column c + 1 as column c, and
// the newest column's factor from one ridge solve of its observations
// against the cached row factors. It takes those factors, with the polish
// budget, only if they pass the trust threshold; otherwise, and for a
// newest column with fewer observations than the rank, the fit goes cold.
// The saving is the shorter budget, not early convergence: on the scaled
// perfbench workloads neither early exit fires. At seed 1, each trusted
// resume in train_metro runs all 4 sweeps and each of its other fits
// (cold, or resumed but not trusted) all 20. In serve_city, each pass runs
// 128 LOO fits: the 32 fits of the campaigns' first cycles are cold, and
// 95 of the other 96, each one slide after the campaign's previous fit,
// take the slid resume; one fails the trust threshold and goes cold.
// train_metro senses fewer than `rank` cells before its first fit after a
// slide, so those fits stay cold and no candidate is built. In train_paper
// most cold fits build the candidate and reject it, which keeps their
// bytes. Set `warm_start = false` for the stateless cold-start behaviour.
//
// Robustness: a warm resume that fails to produce usable factors —
// non-finite values out of a pathological cached init, or the armed
// `als.converge` fault-injection site (util/fault_injection.h) standing in
// for one — falls back to a cold solve from noise with the full sweep
// budget, bit-identical to a never-warmed engine's solve on the same
// window. infer() still hard-checks the final reconstruction for
// non-finite values (the campaign fault domains catch that CheckError).
//
// Threading / determinism contract (every pooled path in this engine — the
// ALS half-sweeps and the leave-one-out solves — upholds it, and any new
// fan-out added here must too; see src/util/thread_pool.h for the pool-side
// half of the contract):
//  * Work is partitioned into contiguous index chunks whose boundaries only
//    affect load balance, never arithmetic: each unit (a ridge solve) reads
//    shared state that is immutable during the phase and writes exclusively
//    to its own output index.
//  * Work a chunk shares between its units (the Gram factorisation its ALS
//    solves hold across equal observation lists) is bit-identical to
//    recomputing it per unit, so where the chunks are cut stays invisible.
//  * Cross-unit reductions (convergence stats, RMSE sums) are written per
//    index during the parallel phase and reduced serially in ascending index
//    order afterwards — never accumulated in claim order.
//  * Any randomness is seeded from (seed, index) — the factor seed, or the
//    seed and a task index — never from the executing thread.
// Consequence: infer(), loo_column_predictions() and the resulting quality
// gate decisions are bit-identical for ANY worker count, including the
// 0-worker (strictly serial) pool. tests/sparse_paths_test.cpp holds both
// paths to exact equality.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>

#include "cs/inference_engine.h"
#include "util/thread_pool.h"

namespace drcell::cs {

/// RMSE of `mu + row_factors col_factorsᵀ` against the window's observed
/// entries, iterated through the observation lists (O(observed · rank), not
/// rows x cols). Used by the warm-start trust guard and the scale benches.
double observed_rmse(const Matrix& row_factors, const Matrix& col_factors,
                     double mu, const PartialMatrix& observed);

/// The regularisation, sweep budgets, seed and warm-start thresholds are
/// fixed constants of the engine (matrix_completion.cpp).
struct MatrixCompletionOptions {
  std::size_t rank = 5;        ///< latent dimension r
  bool warm_start = true;      ///< resume from the previous fit's factors
  /// Early exit when the Frobenius norm of the per-sweep factor delta drops
  /// below this fraction of the factor norm itself. The reconstruction only
  /// needs ~1e-3 relative factor accuracy, so 1e-4 leaves a safety margin;
  /// on the scaled workloads the sweep budget runs out first (see the file
  /// header). 0 disables the exit (the pre-warm-start behaviour, used as the
  /// bench reference).
  double frobenius_tol = 1e-4;
};

class MatrixCompletion final : public InferenceEngine {
 public:
  explicit MatrixCompletion(MatrixCompletionOptions options = {});

  Matrix infer(const PartialMatrix& observed) const override;

  /// Fast approximate leave-one-out: fits the factorisation once, then for
  /// each held-out observation re-solves only the affected row factor and
  /// the assessed column's factor (with the other side fixed). Orders of
  /// magnitude cheaper than the generic re-fit-per-cell default and accurate
  /// enough for the quality gate, which only consumes error *statistics*.
  /// The per-cell solves are independent and fan out over the configured
  /// ThreadPool like the ALS half-sweeps (predictions written by index);
  /// the result is bit-identical for any worker count.
  std::vector<double> loo_column_predictions(const PartialMatrix& observed,
                                             std::size_t col) const override;

  std::string name() const override { return "compressive-sensing"; }

  const MatrixCompletionOptions& options() const { return options_; }

  /// Overrides the pool that runs the ridge solves of an ALS half-sweep and
  /// of the leave-one-out pass. nullptr restores the global pool; a 0-worker
  /// pool gives strictly serial execution. Results are bit-identical for any
  /// worker count (solves are independent, stats reduce in index order).
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }

 private:
  struct Fit {
    Matrix row_factors;  // m x r
    Matrix col_factors;  // n x r
    double mu = 0.0;     // observed mean
    std::size_t rank = 0;
  };
  struct WarmState {
    Fit fit;
    std::uint64_t fingerprint = 0;  // of the window the fit converged on
    double rmse = 0.0;  // of the fit on its own observed entries
  };
  Fit fit(const PartialMatrix& observed) const;

  MatrixCompletionOptions options_;
  util::ThreadPool* pool_ = nullptr;  // nullptr -> ThreadPool::global()
  // Converged factors of the previous fit. Engines are shared as const
  // pointers across the campaign, so the cache is mutable and mutex-guarded;
  // the lock is only taken twice per fit (snapshot in, store out).
  mutable std::mutex warm_mutex_;
  mutable std::optional<WarmState> warm_;
};

}  // namespace drcell::cs
