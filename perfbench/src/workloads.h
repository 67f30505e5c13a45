// The benchmark's three closed-loop workloads. Each pass builds every input
// from the seed (set-up), then runs a fixed amount of measured work, so all
// passes of one seed do identical work and must produce identical outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one pass measured and produced.
struct PassResult {
  double setup_s = 0.0;
  double task_gen_s = 0.0;          ///< part of set-up spent building tasks
  std::size_t factor_builds = 0;    ///< shared spatial-factor builds in set-up
  std::size_t factor_hits = 0;      ///< shared spatial-factor reuses in set-up
  double measured_s = 0.0;          ///< wall time of the measured phase
  double cpu_s = 0.0;               ///< process CPU time of the measured phase
  std::vector<double> round_ms;     ///< per wave / per training round
  std::vector<double> round_cpu_ms; ///< process CPU time of each round
  std::size_t cycles = 0;           ///< sensing cycles completed, fleet-wide
  std::size_t cells = 0;            ///< cells sensed in those cycles
  std::vector<double> cycle_errors; ///< their true cycle errors
  std::size_t satisfied = 0;        ///< cycles whose true error <= epsilon
  double gate_p = 0.0;              ///< the LOO gate's p; 0 without the gate
  std::size_t gate_certified = 0;   ///< cycles the LOO gate certified
  std::size_t gate_certified_met = 0; ///< ... whose true error <= epsilon
  std::size_t steps_attempted = 0;
  std::size_t steps_served = 0;
  std::size_t incidents = 0;        ///< scheduler incident-log entries
  double active_campaigns_mean = 0.0;
  bool finite = true;               ///< every quality figure was finite
  std::uint32_t fingerprint = 0;    ///< CRC-32 of actions, selections, errors
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Pool lanes the workload runs on (caller included).
  virtual std::size_t lanes() const = 0;
  /// Extra set-up-only passes to run before each full pass, so a short
  /// set-up still gives setup_s enough samples for a steady median.
  virtual std::size_t extra_setups() const { return 0; }
  /// One pass: set-up from the seed, then the measured phase. A traced pass
  /// records spans and kernel counts during its measured phase only. With
  /// setup_only the pass returns right after set-up, with only setup_s set.
  virtual PassResult run_pass(bool traced, bool setup_only) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
