// Small reusable thread pool for the library's fan-out hot paths (committee
// inference, DQN batch forwards, ALS half-sweeps, the LOO quality gate, the
// Nyström field sampler, campaign waves, benches).
//
// Design points:
//  * The calling thread participates in parallel_for, so a pool constructed
//    with 0 workers degrades to plain serial execution with no queue traffic
//    — that is also the default on single-core machines.
//  * Dispatch is chunked atomic claiming: lanes grab contiguous index ranges
//    with one `fetch_add` per range instead of taking the batch mutex per
//    index, so ~1µs tasks no longer serialise on dispatch (see the
//    `pool_dispatch_fine_grain` micro bench pair). The chunk size is derived
//    from n and the lane count; claim ORDER is scheduling-dependent, but
//    callers write results by index, so outputs never are.
//  * Callables are taken as non-owning `FunctionRef`s — no `std::function`
//    copy or heap allocation per call site (pinned by a no-allocation
//    assertion in bench_micro_components).
//  * Results are deterministic: callers write results by index, so the
//    output layout never depends on thread scheduling.
//  * Exceptions are AGGREGATED, not short-circuited: every task in [0, n)
//    runs even when earlier ones throw (each task body is individually
//    guarded, so a throwing task never skips its chunk-mates), nested and
//    serial batches included. After the batch drains, the FIRST captured
//    exception (in claim order — which exception is "first" under real
//    parallelism is scheduling-dependent; with 0 workers it is the
//    lowest-index one) is rethrown on the calling thread; the others are
//    dropped. Fault-domain callers that need per-index attribution or a
//    count (the campaign scheduler's wave step) catch inside their own task
//    body instead; the pool-level guarantee is that one bad index cannot
//    silently starve the others.
//
// Determinism contract for pooled callers. Every hot path in this library
// that fans out over the pool guarantees bit-identical results for ANY
// worker count (0-worker serial included), and new pooled paths must uphold
// the same three invariants:
//  1. Index-exclusive writes: task i writes only to output slot(s) derived
//     from i; shared inputs are immutable for the duration of the
//     parallel_for. No atomics-as-accumulators, no locks around arithmetic.
//  2. Index-ordered reduction: anything that combines per-task values
//     (sums, maxima, convergence stats) is stored per index during the
//     parallel phase and folded serially in ascending index order after the
//     loop returns — floating-point addition is not associative, so
//     claim-order accumulation would make results scheduling-dependent.
//  3. Seeded per-task RNG: stochastic tasks seed their stream from
//     (seed, index) — never from the executing thread or a shared
//     generator.
// Chunking for load balance is fine as long as chunk boundaries only group
// tasks and never change the arithmetic (see util/chunking.h for the shared
// weighted policy used by the ALS/LOO paths in cs/matrix_completion.cpp).
// The bit-identity is enforced by tests (tests/sparse_paths_test.cpp,
// tests/thread_pool_test.cpp, tests/nystrom_field_test.cpp).
//
// Nested parallel_for calls (a pooled task fanning out again, or a second
// thread submitting while a batch is in flight) run inline/serially instead
// of deadlocking — correctness never depends on actual parallelism.
//
// Global pool sizing precedence (highest wins):
//  1. `set_global_worker_count_for_testing(w)` — tears the global pool down
//     and rebuilds it with exactly `w` workers. Test-only: must not race
//     in-flight pooled work.
//  2. `DRCELL_THREADS=<lanes>` — read ONCE at first `global()` use (same
//     read-once discipline as `DRCELL_BACKEND`). The value counts TOTAL
//     lanes including the participating caller, so `DRCELL_THREADS=1` is
//     fully serial (0 workers) and `DRCELL_THREADS=4` spawns 3 workers.
//     Unparsable, signed, `0` or out-of-range values, and values above the
//     fixed 1024-lane cap, fall back to the default.
//  3. Default: `default_worker_count()` = hardware_concurrency − 1.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function_ref.h"

namespace drcell::util {

class ThreadPool {
 public:
  /// Spawns `workers` threads. The default sizes the pool so that workers
  /// plus the participating caller equal the hardware concurrency.
  explicit ThreadPool(std::size_t workers = default_worker_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, n), distributing index ranges over the
  /// workers and the calling thread. Blocks until all calls return. Every
  /// index runs even when some throw; the first captured exception is
  /// rethrown on the caller (see the aggregation contract above). `fn` is
  /// borrowed, not copied — it only needs to live for the duration of this
  /// call.
  void parallel_for(std::size_t n, FunctionRef<void(std::size_t)> fn);

  /// hardware_concurrency - 1 (the caller is the remaining lane), at least 0.
  static std::size_t default_worker_count();

  /// Process-wide shared pool used by the library hot paths. Sized by the
  /// precedence rules documented at the top of this header.
  static ThreadPool& global();

  /// Rebuilds the global pool with exactly `workers` workers (joins the old
  /// pool first). Overrides DRCELL_THREADS. Test-only: callers must ensure
  /// no pooled work is in flight on the global pool.
  static void set_global_worker_count_for_testing(std::size_t workers);

  /// Parses a DRCELL_THREADS-style total-lane spec ("4" → 3 workers,
  /// "1" → 0 workers). Returns `fallback` for null, empty, unparsable,
  /// signed, zero, out-of-range and above-cap (> 1024 lanes) specs.
  /// Exposed for tests; `global()` applies it to getenv("DRCELL_THREADS").
  static std::size_t workers_from_lanes_spec(const char* spec,
                                             std::size_t fallback);

 private:
  struct Batch {
    Batch(FunctionRef<void(std::size_t)> fn_in, std::size_t n_in,
          std::size_t chunk_in)
        : fn(fn_in), n(n_in), chunk(chunk_in) {}
    const FunctionRef<void(std::size_t)> fn;
    const std::size_t n;
    const std::size_t chunk;            // indices claimed per fetch_add
    std::atomic<std::size_t> next{0};   // next unclaimed index
    std::atomic<std::size_t> completed{0};
    std::size_t drainers = 0;           // workers inside drain() — mutex_
    std::exception_ptr error;           // first task exception — mutex_
  };

  void worker_loop();
  // Claims index ranges of `batch` lock-free until exhausted.
  void drain(Batch& batch);

  // Serialises whole batches; a parallel_for arriving while another is in
  // flight simply runs serially instead of queueing behind it.
  std::mutex submission_mutex_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  Batch* batch_ = nullptr;  // non-null while a parallel_for is active
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace drcell::util
