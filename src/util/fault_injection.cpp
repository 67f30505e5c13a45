#include "util/fault_injection.h"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace drcell::util {

InjectedFault::InjectedFault(const std::string& site, const std::string& scope)
    : std::runtime_error("injected fault at " + site +
                         (scope.empty() ? std::string() : "@" + scope)),
      site_(site),
      scope_(scope) {}

namespace {

FaultSpec parse_entry(const std::string& entry);

// Calls fn(entry) for every non-empty `;`-separated entry of a
// DRCELL_FAULT_SPEC-grammar string.
template <typename Fn>
void for_each_entry(const std::string& spec, Fn&& fn) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (!entry.empty()) fn(entry);
  }
}

struct ArmedSpec {
  FaultSpec spec;
  std::uint64_t hit_count = 0;
  std::uint64_t fire_count = 0;
  Rng rng;

  explicit ArmedSpec(const FaultSpec& s) : spec(s), rng(s.seed) {}
};

struct Registry {
  std::mutex mutex;
  std::vector<ArmedSpec> armed;
  // Mirrors `!armed.empty()` so disarmed sites pay one relaxed load and no
  // lock. Only mutated under `mutex`.
  std::atomic<bool> any_armed{false};
};

Registry& registry() {
  // The env spec is parsed once, at first registry use — after that only
  // the programmatic API mutates the armed set. Parsing happens inline
  // (not via arm_from_string) because nothing else may reach the registry
  // until this initializer returns.
  static Registry* reg = [] {
    auto* r = new Registry();
    if (const char* env = std::getenv("DRCELL_FAULT_SPEC"); env != nullptr) {
      for_each_entry(env, [r](const std::string& entry) {
        r->armed.emplace_back(parse_entry(entry));
      });
      r->any_armed.store(!r->armed.empty(), std::memory_order_relaxed);
    }
    return r;
  }();
  return *reg;
}

bool matches(const FaultSpec& spec, const char* site,
             const std::string& scope) {
  if (spec.site != site) return false;
  return spec.scope.empty() || spec.scope == scope;
}

// Parses one `site[@scope]:k=v,...` entry of the DRCELL_FAULT_SPEC grammar.
FaultSpec parse_entry(const std::string& entry) {
  FaultSpec spec;
  const std::size_t colon = entry.find(':');
  std::string head = entry.substr(0, colon);
  const std::size_t at = head.find('@');
  if (at != std::string::npos) {
    spec.scope = head.substr(at + 1);
    head = head.substr(0, at);
  }
  spec.site = head;
  DRCELL_CHECK_MSG(!spec.site.empty(),
                   "DRCELL_FAULT_SPEC entry with empty site: '" + entry + "'");
  if (colon == std::string::npos) return spec;

  std::string params = entry.substr(colon + 1);
  std::size_t start = 0;
  while (start <= params.size()) {
    std::size_t end = params.find(',', start);
    if (end == std::string::npos) end = params.size();
    const std::string kv = params.substr(start, end - start);
    start = end + 1;
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    DRCELL_CHECK_MSG(eq != std::string::npos && eq > 0,
                     "malformed DRCELL_FAULT_SPEC param '" + kv + "'");
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    const char* const first = value.c_str();
    const char* const last = first + value.size();
    bool parsed = false;
    // from_chars rejects a sign and an out-of-range count, where strtoull
    // would wrap "-1" to a huge count without any error.
    const auto parse_count = [&](std::uint64_t& out) {
      const auto [ptr, ec] = std::from_chars(first, last, out);
      parsed = ec == std::errc() && ptr == last;
    };
    if (key == "after") {
      parse_count(spec.after);
    } else if (key == "times") {
      if (value == "inf") {
        spec.times = FaultSpec::kForever;
        parsed = true;
      } else {
        parse_count(spec.times);
      }
    } else if (key == "prob") {
      char* parse_end = nullptr;
      spec.probability = std::strtod(first, &parse_end);
      parsed = parse_end == last && parse_end != first;
    } else if (key == "seed") {
      parse_count(spec.seed);
    } else {
      DRCELL_CHECK_MSG(false,
                       "unknown DRCELL_FAULT_SPEC key '" + key + "'");
    }
    DRCELL_CHECK_MSG(parsed,
                     "unparsable DRCELL_FAULT_SPEC value '" + kv + "'");
  }
  DRCELL_CHECK_MSG(spec.probability >= 0.0 && spec.probability <= 1.0,
                   "DRCELL_FAULT_SPEC prob outside [0,1]");
  return spec;
}

}  // namespace

bool FaultInjection::enabled() {
  return registry().any_armed.load(std::memory_order_relaxed);
}

void FaultInjection::arm(const FaultSpec& spec) {
  DRCELL_CHECK_MSG(!spec.site.empty(), "FaultSpec needs a site name");
  DRCELL_CHECK_MSG(spec.probability >= 0.0 && spec.probability <= 1.0,
                   "FaultSpec probability outside [0,1]");
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.armed.emplace_back(spec);
  reg.any_armed.store(true, std::memory_order_relaxed);
}

std::size_t FaultInjection::arm_from_string(const std::string& spec) {
  std::size_t count = 0;
  for_each_entry(spec, [&count](const std::string& entry) {
    arm(parse_entry(entry));
    ++count;
  });
  return count;
}

void FaultInjection::disarm_all() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.armed.clear();
  reg.any_armed.store(false, std::memory_order_relaxed);
}

std::uint64_t FaultInjection::fires(const std::string& site,
                                    const std::string& scope) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t total = 0;
  for (const ArmedSpec& a : reg.armed)
    if (a.spec.site == site && (scope.empty() || a.spec.scope == scope))
      total += a.fire_count;
  return total;
}

bool FaultInjection::check(const char* site, const std::string& scope) {
  Registry& reg = registry();
  if (!reg.any_armed.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(reg.mutex);
  bool fire = false;
  for (ArmedSpec& a : reg.armed) {
    if (!matches(a.spec, site, scope)) continue;
    ++a.hit_count;
    if (fire) continue;  // one fire per call; later specs still count hits
    if (a.hit_count <= a.spec.after) continue;
    if (a.spec.times != FaultSpec::kForever && a.fire_count >= a.spec.times)
      continue;
    if (a.spec.probability < 1.0 && !a.rng.bernoulli(a.spec.probability))
      continue;
    ++a.fire_count;
    fire = true;
  }
  return fire;
}

void FaultInjection::site(const char* site, const std::string& scope) {
  if (check(site, scope)) throw InjectedFault(site, scope);
}

}  // namespace drcell::util
