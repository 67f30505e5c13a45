// Inference committee: runs several heterogeneous engines and measures
// their per-entry disagreement. This is the substrate of the QBC baseline
// (Sec. 5.2): "allocate the next task to the cell with the largest variance
// among the inferred values of different algorithms".
//
// infer_all fans the members out over a util::ThreadPool (the process-wide
// pool by default). Results are written by member index, so the output is
// bit-identical to the serial loop for any worker count.
#pragma once

#include <vector>

#include "cs/inference_engine.h"
#include "util/thread_pool.h"

namespace drcell::cs {

class InferenceCommittee {
 public:
  explicit InferenceCommittee(std::vector<InferenceEnginePtr> members);

  std::size_t size() const { return members_.size(); }
  const InferenceEngine& member(std::size_t i) const { return *members_.at(i); }

  /// Overrides the pool used by infer_all. nullptr restores the global pool;
  /// a pool with 0 workers gives strictly serial execution.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }

  /// Runs every member on the observation. Results are index-aligned with
  /// the member list.
  std::vector<Matrix> infer_all(const PartialMatrix& observed) const;

  /// Population variance of member predictions for every entry.
  static Matrix disagreement(const std::vector<Matrix>& predictions);

 private:
  std::vector<InferenceEnginePtr> members_;
  util::ThreadPool* pool_ = nullptr;  // nullptr -> ThreadPool::global()
};

}  // namespace drcell::cs
