// perfbench — the repository's end-to-end benchmark (see README.md).
//
//   perfbench --workload <serve_city|train_paper|train_metro> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs passes of the workload (set-up from the seed, then a fixed measured
// phase) until the measured phases add up to --seconds, at least three
// passes (four when traced). Untraced passes give the end-to-end metrics;
// with --trace 1 every second pass records spans and kernel counts and the
// per-layer metrics are printed instead. Every pass must reproduce the first
// one's CRC-32 fingerprint. The last stdout line is the JSON result; the
// line before it stamps the run's context.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "counting_backend.h"
#include "linalg/backend.h"
#include "stats.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed;
}

/// Host CPU time counters from the aggregate line of /proc/stat: total and
/// steal jiffies. Zeros when the file cannot be read.
std::pair<double, double> host_cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return {0.0, 0.0};
  double v[8] = {};
  for (double& x : v)
    if (!(in >> x)) return {0.0, 0.0};
  double total = 0.0;
  for (double x : v) total += x;
  return {total, v[7]};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-layer figures gathered from the traced passes.
struct LayerAgg {
  std::vector<double> ms;       // span durations, pooled over passes
  std::vector<double> self_ms;  // span self times, pooled over passes
  std::vector<double> calls;    // per pass
  std::vector<double> busy_s;   // per pass
  std::vector<double> share;    // lane-weighted wall share, per pass
};

struct TraceAgg {
  std::array<LayerAgg, kLayers> layers;
  std::vector<double> lane_busy;  // per pass
  std::vector<double> accounted;  // per pass
  std::array<std::vector<double>, kKernels> calls, gflop, mb;
  std::vector<Span> last_spans;

  void add_pass(std::vector<Span> spans, double measured_s, std::size_t lanes) {
    const auto self = self_times_ns(spans);
    const auto weighted = lane_weighted_ns(spans);
    std::array<double, kLayers> calls_now{}, busy_now{};
    std::unordered_set<std::uint64_t> waves;
    double wave_ns = 0.0, wave_child_ns = 0.0;
    for (const Span& s : spans)
      if (s.layer == Layer::kWave) {
        waves.insert(s.id);
        wave_ns += static_cast<double>(s.end_ns - s.start_ns);
      }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto l = static_cast<std::size_t>(s.layer);
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      layers[l].ms.push_back(dur * 1e-6);
      layers[l].self_ms.push_back(static_cast<double>(self[i]) * 1e-6);
      calls_now[l] += 1;
      busy_now[l] += dur * 1e-9;
      if (waves.count(s.parent)) wave_child_ns += dur;
    }
    double weighted_sum = 0.0;
    for (std::size_t l = 0; l < kLayers; ++l) {
      layers[l].calls.push_back(calls_now[l]);
      layers[l].busy_s.push_back(busy_now[l]);
      layers[l].share.push_back(weighted[l] * 1e-9 / measured_s);
      weighted_sum += weighted[l];
    }
    if (wave_ns > 0)
      lane_busy.push_back(wave_child_ns /
                          (wave_ns * static_cast<double>(lanes)));
    accounted.push_back(weighted_sum * 1e-9 / measured_s);
    const auto work = CountingBackend::totals();
    for (std::size_t k = 0; k < kKernels; ++k) {
      calls[k].push_back(static_cast<double>(work[k].calls));
      gflop[k].push_back(work[k].flop * 1e-9);
      mb[k].push_back(work[k].bytes * 1e-6);
    }
    last_spans = std::move(spans);
  }
};

/// Ordered metric list for the JSON result.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) finite_ = false;
    entries_.push_back({name, value, unit});
  }
  bool finite() const { return finite_; }
  std::string json() const {
    std::ostringstream out;
    out << '{';
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& e = entries_[i];
      if (i) out << ", ";
      char num[40];
      std::snprintf(num, sizeof num, "%.17g",
                    std::isfinite(e.value) ? e.value : 0.0);
      out << '"' << e.name << "\": {\"value\": " << num << ", \"unit\": \""
          << e.unit << "\"}";
    }
    out << '}';
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
  bool finite_ = true;
};

std::vector<double> pass_values(const std::vector<PassResult>& passes,
                                const std::vector<bool>& traced, bool want,
                                double (*f)(const PassResult&)) {
  std::vector<double> out;
  for (std::size_t i = 0; i < passes.size(); ++i)
    if (traced[i] == want) out.push_back(f(passes[i]));
  return out;
}

/// "layer": span count pairs (the sample counts behind the per-layer
/// percentiles), for the layers the traced passes recorded.
std::string layer_samples(const TraceAgg& agg) {
  std::ostringstream out;
  const char* sep = "";
  for (std::size_t l = 0; l < kLayers; ++l) {
    if (agg.layers[l].ms.empty()) continue;
    out << sep << '"' << layer_name(static_cast<Layer>(l))
        << "\": " << agg.layers[l].ms.size();
    sep = ", ";
  }
  return out.str();
}

/// Every untraced pass does the same rounds, so round r has one sample per
/// untraced pass; `reduce` folds them into one value. One value per round
/// index. With `median`, a burst of host noise that slows some rounds of a
/// minority of passes drops out.
std::vector<double> per_round(const std::vector<PassResult>& passes,
                              const std::vector<bool>& traced,
                              std::vector<double> PassResult::*field,
                              double (*reduce)(std::vector<double>)) {
  std::vector<double> out, at;
  for (std::size_t r = 0;; ++r) {
    at.clear();
    for (std::size_t i = 0; i < passes.size(); ++i)
      if (!traced[i] && r < (passes[i].*field).size())
        at.push_back((passes[i].*field)[r]);
    if (at.empty()) return out;
    out.push_back(reduce(at));
  }
}

/// A round's best time. When other load leaves fewer free cores than the
/// workload has lanes, a preempted lane stalls the whole round, in bursts
/// that can catch most of a run's passes; only ever adding time, they drop
/// out of the best.
double best(std::vector<double> v) {
  return *std::min_element(v.begin(), v.end());
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    return 2;
  }
  auto workload = make_workload(args.workload, args.seed);
  if (!workload) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const auto t_start = Clock::now();

  // Lane pinning: the pool reads DRCELL_THREADS once, at its first use.
  const std::string lanes_spec = std::to_string(workload->lanes());
  setenv("DRCELL_THREADS", lanes_spec.c_str(), 1);
  const std::size_t lanes = drcell::util::ThreadPool::global().worker_count() + 1;
  if (lanes != workload->lanes()) {
    std::cerr << "pool has " << lanes << " lanes, workload needs "
              << workload->lanes() << "\n";
    return 2;
  }
  CountingBackend::register_around("native");
  drcell::BackendRegistry::set_active("native");

  const auto host0 = host_cpu_jiffies();
  std::vector<PassResult> passes;
  std::vector<bool> traced;
  std::vector<double> setups;
  TraceAgg agg;
  const std::size_t min_passes = args.trace ? 4 : 3;
  double measured_total = 0.0, longest_pass_s = 0.0;
  while (passes.size() < min_passes || measured_total < args.seconds) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t_start).count();
    // Stay well inside the 180 s a run may take, whatever the machine.
    if (passes.size() >= min_passes && elapsed + longest_pass_s > 150.0) break;
    const bool trace_this = args.trace && passes.size() % 2 == 1;
    const auto p0 = Clock::now();
    for (std::size_t k = 0; k < workload->extra_setups(); ++k)
      setups.push_back(workload->run_pass(false, true).setup_s);
    passes.push_back(workload->run_pass(trace_this, false));
    setups.push_back(passes.back().setup_s);
    traced.push_back(trace_this);
    longest_pass_s = std::max(
        longest_pass_s, std::chrono::duration<double>(Clock::now() - p0).count());
    measured_total += passes.back().measured_s;
    if (trace_this)
      agg.add_pass(Tracer::collect(), passes.back().measured_s, lanes);
  }
  const auto host1 = host_cpu_jiffies();
  const double host_total = host1.first - host0.first;
  const double steal_share =
      host_total > 0 ? (host1.second - host0.second) / host_total : 0.0;

  // --- correctness ---------------------------------------------------------
  const PassResult& first = passes.front();
  std::vector<std::string> problems;
  std::size_t attempted = 0, served = 0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    if (p.fingerprint != first.fingerprint)
      problems.push_back("pass " + std::to_string(i) +
                         (traced[i] ? " (traced)" : "") +
                         " fingerprint differs from pass 0");
    if (!p.finite) problems.push_back("non-finite quality figure");
    if (p.cycles == 0) problems.push_back("no cycle completed");
    attempted += p.steps_attempted;
    served += p.steps_served;
  }
  if (served < attempted) problems.push_back("served_share < 1");
  // The (epsilon, p) promise of the LOO gate: the cycles it certifies meet
  // epsilon at a rate of at least p. A LOO that leaks the held-out value
  // certifies nearly every cycle and breaks it; one that never certifies
  // has stopped judging.
  if (first.gate_p > 0.0) {
    if (first.gate_certified == 0)
      problems.push_back("the LOO gate certified no cycle");
    else if (static_cast<double>(first.gate_certified_met) <
             first.gate_p * static_cast<double>(first.gate_certified))
      problems.push_back("gate-certified cycles met epsilon at a rate below p");
  }

  // Percentiles describe how cost spreads over a pass's rounds. On several
  // lanes they are taken over each round's best time. One lane is not
  // stalled that way, and there the best follows whichever pass caught the
  // host's fastest moment, so they take the median, as throughput always
  // does.
  const std::vector<double> rounds = per_round(
      passes, traced, &PassResult::round_ms, lanes > 1 ? best : median);
  const std::size_t p90_tail = tail_count(rounds.size(), 0.90);
  if (p90_tail < kMinTail)
    problems.push_back("too few rounds for p90 (" +
                       std::to_string(rounds.size()) + ")");

  // --- metrics -------------------------------------------------------------
  const auto untraced = [&](double (*f)(const PassResult&)) {
    return median(pass_values(passes, traced, false, f));
  };
  const double cycles = static_cast<double>(first.cycles);
  Metrics m;
  if (!args.trace) {
    m.add("setup_s", median(setups), "s");
    const double pass_ms =
        sum(per_round(passes, traced, &PassResult::round_ms, median));
    const double pass_cpu_ms =
        sum(per_round(passes, traced, &PassResult::round_cpu_ms, median));
    m.add("cycles_per_s", 1e3 * cycles / pass_ms, "1/s");
    m.add("round_ms_p50", percentile(rounds, 0.50), "ms");
    m.add("round_ms_p90", percentile(rounds, 0.90), "ms");
    m.add("cpu_ms_per_cycle", pass_cpu_ms / cycles, "ms");
    m.add("cells_per_cycle", static_cast<double>(first.cells) / cycles, "cells");
    m.add("cycle_error", median(first.cycle_errors), "MAE");
    m.add("satisfaction", static_cast<double>(first.satisfied) / cycles,
          "share");
    m.add("served_share",
          attempted ? static_cast<double>(served) / static_cast<double>(attempted)
                    : 0.0,
          "share");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const auto& L = agg.layers;
    auto layer = [&](Layer l) -> const LayerAgg& {
      return L[static_cast<std::size_t>(l)];
    };
    auto p90 = [](const std::vector<double>& v) {
      return tail_count(v.size(), 0.90) >= kMinTail ? percentile(v, 0.90) : 0.0;
    };
    const bool serving = !agg.lane_busy.empty();
    m.add("core.wave_self_ms_p50", percentile(layer(Layer::kWave).self_ms, 0.5),
          "ms");
    m.add("core.lane_busy_share", median(agg.lane_busy), "share");
    m.add("core.active_campaigns_mean",
          serving ? first.active_campaigns_mean : 0.0, "count");
    m.add("core.incidents", static_cast<double>(first.incidents), "count");
    m.add("core.wave.wall_share", median(layer(Layer::kWave).share), "share");
    for (Layer l : {Layer::kLoo, Layer::kInfer}) {
      const std::string n = layer_name(l);
      m.add(n + ".calls", median(layer(l).calls), "count");
      m.add(n + ".ms_p50", percentile(layer(l).ms, 0.5), "ms");
      m.add(n + ".ms_p90", p90(layer(l).ms), "ms");
      m.add(n + ".busy_s", median(layer(l).busy_s), "s");
      m.add(n + ".wall_share", median(layer(l).share), "share");
    }
    m.add("mcs.step.self_ms_p50",
          percentile(layer(Layer::kEnvStep).self_ms, 0.5), "ms");
    m.add("mcs.steps", median(layer(Layer::kEnvStep).calls), "count");
    m.add("mcs.step.wall_share", median(layer(Layer::kEnvStep).share), "share");
    m.add("rl.train_step.ms_p50", percentile(layer(Layer::kTrainStep).ms, 0.5),
          "ms");
    m.add("rl.train_step.ms_p90", p90(layer(Layer::kTrainStep).ms), "ms");
    m.add("rl.train_step.busy_s", median(layer(Layer::kTrainStep).busy_s), "s");
    m.add("rl.train_steps", median(layer(Layer::kTrainStep).calls), "count");
    m.add("rl.train_step.wall_share", median(layer(Layer::kTrainStep).share),
          "share");
    m.add("rl.select.ms_p50", percentile(layer(Layer::kSelect).ms, 0.5), "ms");
    m.add("rl.select.wall_share", median(layer(Layer::kSelect).share), "share");
    m.add("round.wall_share", median(layer(Layer::kRound).share), "share");
    m.add("baselines.select.ms_p50",
          percentile(layer(Layer::kBaselineSelect).ms, 0.5), "ms");
    for (std::size_t k = 0; k < kKernels; ++k) {
      const std::string n =
          std::string("linalg.") + kernel_name(static_cast<Kernel>(k));
      m.add(n + ".calls", median(agg.calls[k]), "count");
      m.add(n + ".gflop", median(agg.gflop[k]), "GFLOP");
      m.add(n + ".mb", median(agg.mb[k]), "MB");
    }
    std::vector<double> gen, builds, hits;
    for (const auto& p : passes) {
      gen.push_back(p.task_gen_s);
      builds.push_back(static_cast<double>(p.factor_builds));
      hits.push_back(static_cast<double>(p.factor_hits));
    }
    m.add("data.task_gen_s", median(gen), "s");
    m.add("data.factor_builds", median(builds), "count");
    m.add("data.factor_hits", median(hits), "count");
    m.add("proc.cpu_util", untraced([](const PassResult& p) {
            return p.cpu_s / p.measured_s;
          }) / static_cast<double>(lanes), "share");
    const double t_on = median(pass_values(
        passes, traced, true, [](const PassResult& p) { return p.measured_s; }));
    const double t_off = median(pass_values(
        passes, traced, false, [](const PassResult& p) { return p.measured_s; }));
    m.add("trace.overhead_share", t_on / t_off - 1.0, "share");
    m.add("trace.accounted_share", median(agg.accounted), "share");
  }
  if (!m.finite()) problems.push_back("non-finite metric");

  std::string trace_file;
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    trace_file = args.out_dir + "/trace-" + args.workload + "-" +
                 std::to_string(args.seed) + ".csv";
    if (!Tracer::write_csv(trace_file, agg.last_spans))
      problems.push_back("cannot write " + trace_file);
  }

  for (const auto& p : problems) std::cerr << "perfbench: " << p << "\n";
  std::size_t traced_passes = 0;
  for (bool t : traced) traced_passes += t;
  char fp[16];
  std::snprintf(fp, sizeof fp, "%08x", first.fingerprint);
  std::cout << "{\"context\": {\"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed << ", \"lanes\": " << lanes
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"backend\": \"" << drcell::BackendRegistry::active().name()
            << "\", \"traced_backend\": \""
            << (args.trace ? CountingBackend::kName : "none")
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"passes\": " << passes.size()
            << ", \"traced_passes\": " << traced_passes
            << ", \"round_samples\": " << rounds.size()
            << ", \"round_p90_tail_samples\": " << p90_tail
            << ", \"setup_samples\": " << setups.size()
            << ", \"cycles_per_pass\": " << first.cycles
            << ", \"gate_certified\": " << first.gate_certified
            << ", \"gate_certified_met\": " << first.gate_certified_met
            << ", \"layer_samples\": {" << layer_samples(agg) << "}"
            << ", \"steal_share\": " << steal_share
            << ", \"fingerprint\": \"" << fp << "\", \"trace_file\": \""
            << trace_file << "\"}}\n";
  std::cout << "{\"correct\": " << (problems.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << (attempted - served)
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return problems.empty() ? 0 : 1;
}
