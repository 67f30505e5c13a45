// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed by the benchmark's own files around the calls
// into each library layer (forwarding wrappers and the driving loops); the
// library itself is not instrumented. Each span records its layer, thread,
// start, end, parent and a request id (campaign slot and cycle, or episode
// and step). A span's parent is the enclosing span on its own thread or, on
// a thread with no open span (a pool worker), the root span the driving
// thread has open — so a scheduler wave is the parent of every campaign's
// inference call, whichever lane ran it.
//
// Recording costs one relaxed load when tracing is off. When on, every
// thread appends to its own buffer; collect() and clear() may only run while
// no traced work is in flight.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kRound,           ///< training root: one env step plus its gradient step
  kWave,            ///< serving root: one CampaignScheduler wave
  kLoo,             ///< InferenceEngine::loo_column_predictions
  kInfer,           ///< InferenceEngine::infer
  kEnvStep,         ///< SparseMcsEnvironment::step
  kTrainStep,       ///< DqnTrainer::train_step
  kSelect,          ///< DqnTrainer action selection
  kBaselineSelect,  ///< baseline CellSelector::select
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// Metric-name prefix of a layer ("cs.loo", "rl.train_step", ...).
const char* layer_name(Layer layer);

inline constexpr std::uint64_t kNoParent = ~std::uint64_t{0};

struct Span {
  Layer layer = Layer::kRound;
  std::uint32_t thread = 0;
  std::uint64_t id = 0;  ///< unique within one recording
  std::uint64_t parent = kNoParent;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Request id of a campaign cycle or a training episode step.
inline std::uint64_t request_id(std::uint64_t major, std::uint64_t minor) {
  return (major << 32) | (minor & 0xffffffffu);
}

class Tracer {
 public:
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  /// Drops every recorded span. Quiescent callers only.
  static void clear();
  /// Every closed span, ordered by start time. Quiescent callers only.
  static std::vector<Span> collect();
  /// Writes spans as CSV (layer,thread,id,parent,request,start_ns,end_ns).
  /// Returns false when the file cannot be written.
  static bool write_csv(const std::string& path, const std::vector<Span>& spans);

 private:
  static std::atomic<bool> enabled_;
};

/// Records one span from construction to destruction (when tracing is on).
/// A root span also becomes the parent of spans opened on threads that have
/// no span of their own open.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, std::uint64_t request, bool root = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  struct ThreadBuffer* buffer_ = nullptr;
  std::size_t index_ = 0;
  bool root_ = false;
};

// --- Analysis (pure functions over recorded spans) ------------------------

/// Length of the union of the half-open intervals, clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi);

/// Self time of each span (index-aligned with `spans`): its duration minus
/// the part of it that its direct children cover, counting overlapping
/// children on different threads once.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Wall time attributed to each layer: at every instant, each thread with a
/// span open charges its innermost span's layer 1/k of the elapsed time,
/// where k is the number of such threads. The total equals the wall time
/// during which any span was open.
std::array<double, kLayers> lane_weighted_ns(const std::vector<Span>& spans);

}  // namespace perfbench
