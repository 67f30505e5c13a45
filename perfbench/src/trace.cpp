#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kThreadShift = 40;

}  // namespace

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;        // open spans have end_ns == 0
  std::vector<std::size_t> open;  // stack of indices into `spans`
};

namespace {

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by the mutex
std::atomic<std::uint64_t> g_root{kNoParent};
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& this_thread_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
  }
  return *t_buffer;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRound: return "round";
    case Layer::kWave: return "core.wave";
    case Layer::kLoo: return "cs.loo";
    case Layer::kInfer: return "cs.infer";
    case Layer::kEnvStep: return "mcs.step";
    case Layer::kTrainStep: return "rl.train_step";
    case Layer::kSelect: return "rl.select";
    case Layer::kBaselineSelect: return "baselines.select";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (auto& b : g_buffers) {
    b->spans.clear();
    b->open.clear();
  }
  g_root.store(kNoParent, std::memory_order_relaxed);
}

std::vector<Span> Tracer::collect() {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (const auto& b : g_buffers)
      for (const Span& s : b->spans)
        if (s.end_ns != 0) all.push_back(s);
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool Tracer::write_csv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "layer,thread,id,parent,request,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << layer_name(s.layer) << ',' << s.thread << ',' << s.id << ',';
    if (s.parent == kNoParent)
      out << -1;
    else
      out << s.parent;
    out << ',' << s.request << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Layer layer, std::uint64_t request, bool root)
    : root_(root) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& b = this_thread_buffer();
  Span s;
  s.layer = layer;
  s.thread = b.thread;
  s.id = (std::uint64_t{b.thread} << kThreadShift) | b.spans.size();
  s.parent = b.open.empty() ? g_root.load(std::memory_order_acquire)
                            : b.spans[b.open.back()].id;
  s.request = request;
  buffer_ = &b;
  index_ = b.spans.size();
  b.open.push_back(index_);
  if (root_) g_root.store(s.id, std::memory_order_release);
  s.start_ns = now_ns();
  b.spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = now_ns();
  buffer_->open.pop_back();
  if (root_) g_root.store(kNoParent, std::memory_order_release);
}

std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cursor = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      total += e - s;
      cursor = e;
    }
  }
  return total;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const auto it = index_of.find(s.parent);
    if (it != index_of.end())
      children[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.end_ns - s.start_ns) -
              covered_ns(std::move(children[i]), s.start_ns, s.end_ns);
  }
  return self;
}

std::array<double, kLayers> lane_weighted_ns(const std::vector<Span>& spans) {
  // Per thread, the innermost open span over time as disjoint segments
  // [start, end) -> layer. Spans on one thread nest (they are scoped), so a
  // stack walk over (start asc, end desc) yields them.
  struct Segment {
    std::int64_t start, end;
    Layer layer;
  };
  std::unordered_map<std::uint32_t, std::vector<const Span*>> by_thread;
  for (const Span& s : spans) by_thread[s.thread].push_back(&s);
  std::vector<std::vector<Segment>> lanes;
  std::vector<std::int64_t> bounds;
  for (auto& [thread, list] : by_thread) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->end_ns > b->end_ns;
    });
    std::vector<Segment> segs;
    std::vector<const Span*> stack;
    std::int64_t cursor = 0;
    auto emit = [&](std::int64_t from, std::int64_t to, const Span* s) {
      if (to > from) segs.push_back({from, to, s->layer});
    };
    for (const Span* s : list) {
      while (!stack.empty() && stack.back()->end_ns <= s->start_ns) {
        emit(cursor, stack.back()->end_ns, stack.back());
        cursor = stack.back()->end_ns;
        stack.pop_back();
      }
      if (!stack.empty()) emit(cursor, s->start_ns, stack.back());
      cursor = s->start_ns;
      stack.push_back(s);
    }
    while (!stack.empty()) {
      emit(cursor, stack.back()->end_ns, stack.back());
      cursor = stack.back()->end_ns;
      stack.pop_back();
    }
    for (const Segment& g : segs) {
      bounds.push_back(g.start);
      bounds.push_back(g.end);
    }
    lanes.push_back(std::move(segs));
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::array<double, kLayers> out{};
  std::vector<std::size_t> pos(lanes.size(), 0);
  std::vector<Layer> busy;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    const std::int64_t lo = bounds[b], hi = bounds[b + 1];
    busy.clear();
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      auto& p = pos[l];
      while (p < lanes[l].size() && lanes[l][p].end <= lo) ++p;
      if (p < lanes[l].size() && lanes[l][p].start <= lo)
        busy.push_back(lanes[l][p].layer);
    }
    if (busy.empty()) continue;
    const double share = static_cast<double>(hi - lo) /
                         static_cast<double>(busy.size());
    for (Layer layer : busy) out[static_cast<std::size_t>(layer)] += share;
  }
  return out;
}

}  // namespace perfbench
