#include "util/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace drcell::util {

namespace {
// Set for the lifetime of a worker thread. Nested parallel_for calls from
// inside a pool task run inline instead of re-entering the pool, which would
// deadlock a fully busy pool.
thread_local bool t_is_pool_worker = false;
// Set while a thread is submitting/draining a batch: a nested parallel_for
// from the caller's own lane must not touch submission_mutex_ again
// (try_lock on a non-recursive mutex the thread already owns is UB).
thread_local bool t_in_parallel_for = false;

// Largest DRCELL_THREADS lane count honoured. A larger spec is a typo or a
// wrapped value, not a machine: it falls back to the default instead of
// asking the OS for that many threads at the first global() call.
constexpr std::size_t kMaxLanes = 1024;

// Indices claimed per fetch_add. ~8 chunks per lane keeps dynamic load
// balance (late lanes steal from the shared counter) while paying dispatch
// overhead once per range instead of once per index.
std::size_t chunk_size(std::size_t n, std::size_t lanes) {
  return std::max<std::size_t>(1, n / (lanes * 8));
}

// Owned through a unique_ptr so set_global_worker_count_for_testing can
// join + replace the pool; function-local static keeps the usual lazy-init
// thread safety.
std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool = std::make_unique<ThreadPool>(
      ThreadPool::workers_from_lanes_spec(std::getenv("DRCELL_THREADS"),
                                          ThreadPool::default_worker_count()));
  return pool;
}
}  // namespace

std::size_t ThreadPool::default_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<std::size_t>(hw - 1) : 0;
}

std::size_t ThreadPool::workers_from_lanes_spec(const char* spec,
                                                std::size_t fallback) {
  if (spec == nullptr) return fallback;
  const char* const end = spec + std::strlen(spec);
  std::size_t lanes = 0;
  // from_chars takes no sign and reports overflow, unlike strtoul, which
  // wraps "-1" to ULONG_MAX.
  const auto [ptr, ec] = std::from_chars(spec, end, lanes);
  if (ec != std::errc() || ptr != end || lanes == 0 || lanes > kMaxLanes)
    return fallback;
  return lanes - 1;  // caller is one lane
}

ThreadPool& ThreadPool::global() { return *global_pool_slot(); }

void ThreadPool::set_global_worker_count_for_testing(std::size_t workers) {
  auto& slot = global_pool_slot();
  if (slot->worker_count() == workers) return;
  slot = std::make_unique<ThreadPool>(workers);  // joins the old pool first
}

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] {
      t_is_pool_worker = true;
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] {
      return stop_ ||
             (batch_ != nullptr &&
              batch_->next.load(std::memory_order_relaxed) < batch_->n);
    });
    if (stop_) return;
    Batch& batch = *batch_;
    // Register as a drainer under the mutex BEFORE touching the batch
    // lock-free: the caller's completion wait includes `drainers == 0`, so
    // the stack-allocated Batch cannot be destroyed while any worker still
    // holds a reference to it.
    ++batch.drainers;
    lock.unlock();
    drain(batch);
    lock.lock();
    --batch.drainers;
    if (batch.drainers == 0 &&
        batch.completed.load(std::memory_order_relaxed) == batch.n)
      batch_done_.notify_all();
  }
}

void ThreadPool::drain(Batch& batch) {
  for (;;) {
    const std::size_t start =
        batch.next.fetch_add(batch.chunk, std::memory_order_relaxed);
    if (start >= batch.n) return;
    const std::size_t end = std::min(start + batch.chunk, batch.n);
    // Per-task guard: a throwing task must not starve its chunk-mates (the
    // aggregation contract in the header). Zero-cost on the no-throw path;
    // errors are rare, so per-error locking is fine.
    std::exception_ptr first;
    for (std::size_t i = start; i < end; ++i) {
      try {
        batch.fn(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!batch.error) batch.error = first;
    }
    // acq_rel: the release half publishes this range's output writes; the
    // caller's acquire load of `completed` (which reads the last value in
    // the RMW release sequence) synchronises with every lane's writes.
    const std::size_t done = end - start;
    if (batch.completed.fetch_add(done, std::memory_order_acq_rel) + done ==
        batch.n) {
      // Last range: wake the caller. Taking the mutex pairs the notify with
      // the caller's predicate check so the wake cannot be lost.
      std::lock_guard<std::mutex> lock(mutex_);
      batch_done_.notify_all();
    }
  }
}

namespace {
// Serial fallback with the same aggregation semantics as the pooled path:
// every index runs, the first exception is rethrown afterwards.
void run_serial(std::size_t n, FunctionRef<void(std::size_t)> fn) {
  std::exception_ptr first;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      fn(i);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}
}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              FunctionRef<void(std::size_t)> fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || t_is_pool_worker || t_in_parallel_for) {
    run_serial(n, fn);
    return;
  }
  std::unique_lock<std::mutex> submission(submission_mutex_,
                                          std::try_to_lock);
  if (!submission.owns_lock()) {
    // Another thread's batch is in flight; running serially is always
    // correct and never deadlocks.
    run_serial(n, fn);
    return;
  }
  t_in_parallel_for = true;
  struct ReentryGuard {
    ~ReentryGuard() { t_in_parallel_for = false; }
  } reentry_guard;

  Batch batch(fn, n, chunk_size(n, workers_.size() + 1));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = &batch;
  }
  work_ready_.notify_all();
  drain(batch);  // the caller is one of the lanes
  std::unique_lock<std::mutex> lock(mutex_);
  batch_done_.wait(lock, [&batch] {
    return batch.completed.load(std::memory_order_acquire) == batch.n &&
           batch.drainers == 0;
  });
  batch_ = nullptr;
  if (batch.error) {
    lock.unlock();
    std::rethrow_exception(batch.error);
  }
}

}  // namespace drcell::util
