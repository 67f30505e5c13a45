#include "core/health_monitor.h"

#include <cmath>
#include <limits>

#include "nn/layer.h"

namespace drcell::core {

namespace {
// Sliding window of recent losses compared against the baseline.
constexpr std::size_t kLossWindow = 16;
// The first kLossBaseline finite losses form the reference level.
constexpr std::size_t kLossBaseline = 64;
// Trip when the window mean exceeds this factor x the baseline mean (plus a
// small absolute floor so a near-zero baseline does not flag ordinary
// noise).
constexpr double kLossExplosionFactor = 1e3;
// Absolute |Q| bound for check_q; non-finite always trips.
constexpr double kMaxAbsQ = 1e12;
}  // namespace

HealthMonitor::HealthMonitor() { window_.reserve(kLossWindow); }

void HealthMonitor::trip(HealthStatus status, std::string reason) {
  // Sticky: keep the FIRST tripped sentinel — it names the root cause
  // (later checks on poisoned state all fail for derived reasons).
  if (status_ != HealthStatus::kHealthy) return;
  status_ = status;
  reason_ = std::move(reason);
}

HealthStatus HealthMonitor::record_loss(double loss) {
  if (!std::isfinite(loss)) {
    trip(HealthStatus::kNonFiniteLoss, "train-step loss is non-finite");
    return status_;
  }
  if (baseline_count_ < kLossBaseline) {
    baseline_sum_ += loss;
    ++baseline_count_;
    return status_;
  }
  if (window_.size() < kLossWindow) {
    window_.push_back(loss);
    window_sum_ += loss;
  } else {
    window_sum_ += loss - window_[window_next_];
    window_[window_next_] = loss;
    window_next_ = (window_next_ + 1) % kLossWindow;
  }
  if (window_.size() == kLossWindow) {
    const double baseline =
        baseline_sum_ / static_cast<double>(baseline_count_);
    const double window_mean =
        window_sum_ / static_cast<double>(window_.size());
    // The +1.0 floor keeps a near-zero baseline (e.g. pre-warmup 0.0
    // losses) from flagging ordinary early-training noise.
    if (window_mean > kLossExplosionFactor * (std::fabs(baseline) + 1.0))
      trip(HealthStatus::kLossExplosion,
           "loss window mean " + std::to_string(window_mean) +
               " exploded over baseline " + std::to_string(baseline));
  }
  return status_;
}

HealthStatus HealthMonitor::check_q(const Matrix& q) {
  // One pass for both sentinels. A non-finite value anywhere outranks an
  // out-of-range one, even one that comes earlier in the batch.
  bool non_finite = false;
  bool out_of_range = false;
  for (const double x : q.data()) {
    const double a = std::fabs(x);
    non_finite |= !(a <= std::numeric_limits<double>::max());  // NaN or ±inf
    out_of_range |= a > kMaxAbsQ;
  }
  if (non_finite)
    trip(HealthStatus::kNonFiniteQ, "Q forward produced non-finite values");
  else if (out_of_range)
    trip(HealthStatus::kQOutOfRange,
         "|Q| exceeded " + std::to_string(kMaxAbsQ));
  return status_;
}

HealthStatus HealthMonitor::check_parameters(
    const std::vector<nn::Parameter*>& params) {
  if (clean_.size() != params.size()) clean_.assign(params.size(), {});
  for (std::size_t i = 0; i < params.size(); ++i) {
    const nn::Parameter* p = params[i];
    if (p == nullptr) continue;
    // Unchanged since its last clean scan: the same tensor, not written.
    if (clean_[i].tensor == p && clean_[i].generation == p->generation())
      continue;
    if (p->value().has_non_finite()) {
      trip(HealthStatus::kNonFiniteParams,
           "network parameters contain non-finite values");
      return status_;
    }
    clean_[i] = {p, p->generation()};
  }
  return status_;
}

void HealthMonitor::reset() {
  status_ = HealthStatus::kHealthy;
  reason_.clear();
  baseline_sum_ = 0.0;
  baseline_count_ = 0;
  window_.clear();
  window_next_ = 0;
  window_sum_ = 0.0;
  clean_.clear();
}

}  // namespace drcell::core
