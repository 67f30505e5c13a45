// Deterministic, seeded fault injection for robustness drills.
//
// The library plants named *fault sites* on its failure-prone boundaries —
// environment stepping (`env.step`), ALS solves (`als.solve`, plus the
// check-only `als.converge` that forces the cold-solve fallback), checkpoint
// I/O (`ckpt.save`, `ckpt.load`) and the DQN train step (`train.step`).
// A disarmed site costs one relaxed atomic load and draws NOTHING from any
// RNG stream, so healthy-path trajectories are bit-identical with the
// subsystem compiled in (the serving engine's no-fault bit-identity gates
// run with it enabled).
//
// Arming. Sites are armed programmatically (`FaultInjection::arm`) or via
// the `DRCELL_FAULT_SPEC` environment variable, read ONCE at first registry
// use (the same read-once discipline as DRCELL_BACKEND / DRCELL_THREADS).
// The spec grammar is `;`-separated entries of
//
//   site[@scope]:key=value[,key=value...]      e.g.
//   DRCELL_FAULT_SPEC="env.step@city-3:after=5,times=1;als.solve:prob=0.01"
//
// with keys
//   after=N   skip the first N matching hits, fire from hit N+1 on (0)
//   times=K   fire at most K times, `inf` = every eligible hit (inf)
//   prob=P    per-eligible-hit fire probability in [0,1] (1.0)
//   seed=S    seed of the spec's PRIVATE probability draw stream (13)
// N, K and S are unsigned decimal 64-bit integers: a sign or an
// out-of-range value is rejected like any other malformed value.
// A bare `site[@scope]` (no params) fires on every hit — a persistent
// fault. `scope` narrows the spec to one instance (the scheduler scopes
// `env.step` by campaign id); an empty scope matches every instance.
//
// Determinism: each armed spec owns its hit counter, fire counter and RNG
// stream, so countdown faults against a scoped site fire on an exact,
// reproducible hit of exactly that instance. (Probability faults on an
// UNscoped site that is hit from pooled workers see hits in scheduling
// order — countdowns on scoped sites are the reproducible drill primitive.)
//
// Firing sites throw util::InjectedFault, which fault-tolerant callers
// (core/campaign_scheduler.h) treat like any other campaign fault: bounded
// retry, then quarantine. Check-only sites (`FaultInjection::check`) let a
// caller degrade behaviour without unwinding — cs/matrix_completion.cpp
// uses one to force its non-convergence fallback deterministically.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace drcell::util {

/// The exception a firing (throwing) fault site raises. Deliberately NOT a
/// CheckError: drills must distinguish injected faults from real contract
/// violations.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(const std::string& site, const std::string& scope);
  const std::string& site() const { return site_; }
  const std::string& scope() const { return scope_; }

 private:
  std::string site_;
  std::string scope_;
};

/// One armed fault. Defaults describe a persistent always-fire fault;
/// `after`/`times`/`probability` carve transient or stochastic ones out.
struct FaultSpec {
  std::string site;   ///< site name, e.g. "env.step" — required
  std::string scope;  ///< instance filter; empty matches every scope
  std::uint64_t after = 0;  ///< eligible from matching hit `after`+1 on
  std::uint64_t times = kForever;  ///< max fires; kForever = unbounded
  double probability = 1.0;        ///< per-eligible-hit fire chance
  std::uint64_t seed = 13;         ///< private stream for probability draws

  static constexpr std::uint64_t kForever = ~std::uint64_t{0};
};

/// Process-wide fault registry (static interface; one registry per
/// process, guarded by a mutex on the armed path only).
class FaultInjection {
 public:
  /// True when any spec is armed (incl. via DRCELL_FAULT_SPEC). One relaxed
  /// atomic load — the entire cost of a disarmed site.
  static bool enabled();

  /// Arms a spec. Throws CheckError on an empty site name or a probability
  /// outside [0, 1].
  static void arm(const FaultSpec& spec);
  /// Parses and arms a DRCELL_FAULT_SPEC-grammar string (see header
  /// comment); returns the number of specs armed. Throws CheckError on a
  /// malformed spec.
  static std::size_t arm_from_string(const std::string& spec);
  /// Disarms every spec, including env-armed ones (tests/drills reset).
  static void disarm_all();

  /// Total fires recorded by armed specs for `site` (+ `scope` filter,
  /// empty = sum over all). Zero when nothing matching is armed — disarmed
  /// sites count nothing by design.
  static std::uint64_t fires(const std::string& site,
                             const std::string& scope = "");

  /// Check-only site: records the hit and returns true when an armed spec
  /// fires. Callers use it to degrade behaviour in place of unwinding.
  static bool check(const char* site, const std::string& scope = {});
  /// Throwing site: like check(), but raises InjectedFault on fire.
  static void site(const char* site, const std::string& scope = {});
};

}  // namespace drcell::util

/// The planted-site macro: one relaxed atomic load when disarmed, so hot
/// paths keep it unconditionally.
#define DRCELL_FAULT_SITE(name, scope)                      \
  do {                                                      \
    if (::drcell::util::FaultInjection::enabled())          \
      ::drcell::util::FaultInjection::site((name), (scope)); \
  } while (false)
