// core::HealthMonitor — cheap numeric sentinels for a serving/training
// agent: non-finite losses, exploding loss windows, non-finite Q-values and
// non-finite parameters (via Matrix::has_non_finite). The monitor is a
// detector only — it never mutates the agent. Recovery policy (checkpoint
// rollback, quarantine) lives in the campaign scheduler
// (core/campaign_scheduler.h), which consults the monitor after every wave.
//
// Cost model: record_loss is O(1); check_q is one O(B·m) scan of a Q batch
// the caller already paid a forward for; check_parameters is O(#params) for
// the tensors written since their last clean scan (nn::Parameter's write
// generation) and O(#tensors) otherwise. The campaign scheduler calls it
// every wave, so it pays the scan once per write: every wave for an agent
// that trains (Adam::step writes every tensor), once for a frozen one.
//
// Status is STICKY: once a sentinel trips, status() stays unhealthy (and
// reason() says why) until reset() — e.g. after a rollback restored known-
// good weights. DrCellAgent owns one monitor (agent.health());
// OnlineAdaptivePolicy::on_step feeds every train-step loss into it, which
// is what makes a NaN-poisoned agent detectable within ONE train step: the
// Huber loss over any batch touching the poisoned forward is itself NaN.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace drcell::nn {
class Parameter;
}

namespace drcell::core {

enum class HealthStatus {
  kHealthy,
  kNonFiniteLoss,
  kLossExplosion,
  kNonFiniteQ,
  kQOutOfRange,
  kNonFiniteParams,
};

class HealthMonitor {
 public:
  HealthMonitor();

  /// Feeds one train-step loss (0.0 pre-warmup losses are recorded but can
  /// never trip anything). The first 64 finite losses form the baseline;
  /// after that, a full window of the last 16 trips when its mean exceeds
  /// 1e3 x (|baseline mean| + 1). Returns the (possibly newly tripped)
  /// status.
  HealthStatus record_loss(double loss);

  /// Scans a Q batch (any [B x m] forward output) for non-finite values or
  /// |Q| > 1e12.
  HealthStatus check_q(const Matrix& q);

  /// Scans parameter values for non-finite entries, skipping each tensor
  /// that is the one at the same position in the last call and whose
  /// generation() has not moved since a scan found it clean. A write that
  /// bypasses mutable_value() therefore stays unseen until the tensor's next
  /// mutable_value().
  HealthStatus check_parameters(const std::vector<nn::Parameter*>& params);

  HealthStatus status() const { return status_; }
  bool healthy() const { return status_ == HealthStatus::kHealthy; }
  /// Human-readable description of the tripped sentinel (empty = healthy).
  const std::string& reason() const { return reason_; }

  /// Clears the sticky status, the loss statistics AND the record of clean
  /// tensors — call after recovery restored known-good state (the old
  /// baseline no longer describes it; the next check_parameters scans every
  /// tensor).
  void reset();

 private:
  void trip(HealthStatus status, std::string reason);

  HealthStatus status_ = HealthStatus::kHealthy;
  std::string reason_;

  // Loss statistics: baseline mean over the first kLossBaseline finite
  // losses, then a ring of the last kLossWindow losses (health_monitor.cpp).
  double baseline_sum_ = 0.0;
  std::size_t baseline_count_ = 0;
  std::vector<double> window_;  // ring buffer, size <= kLossWindow
  std::size_t window_next_ = 0;
  double window_sum_ = 0.0;

  // Per check_parameters position: the tensor and the generation it had
  // when a scan last found it clean.
  struct CleanScan {
    const nn::Parameter* tensor = nullptr;
    std::uint64_t generation = 0;
  };
  std::vector<CleanScan> clean_;
};

}  // namespace drcell::core
