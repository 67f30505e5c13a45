#include "linalg/backend.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "util/check.h"

namespace drcell {

// Built-in backend factories (defined in backend_native.cpp /
// backend_reference.cpp). Explicit factory calls instead
// of static self-registration: drcell is a static library, and a
// self-registering TU with no referenced symbol would be dead-stripped by
// the linker.
std::unique_ptr<ComputeBackend> make_native_backend();
std::unique_ptr<ComputeBackend> make_reference_backend();

namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ComputeBackend>> backends;
  // Hot-path dispatch state: one acquire load per kernel call.
  std::atomic<const ComputeBackend*> active{nullptr};
};

Registry& registry() {
  static Registry* r = [] {
    // Leaked intentionally: kernel dispatch must outlive every static
    // destructor (thread pools and tests may run matmuls during teardown).
    auto* reg = new Registry();
    reg->backends.push_back(make_native_backend());
    reg->backends.push_back(make_reference_backend());
    return reg;
  }();
  return *r;
}

const ComputeBackend* find_locked(Registry& r, const std::string& name) {
  for (const auto& b : r.backends)
    if (name == b->name()) return b.get();
  return nullptr;
}

}  // namespace

void BackendRegistry::register_backend(std::unique_ptr<ComputeBackend> b) {
  DRCELL_CHECK_MSG(b != nullptr, "cannot register a null backend");
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  DRCELL_CHECK_MSG(find_locked(r, b->name()) == nullptr,
                   std::string("backend '") + b->name() +
                       "' is already registered");
  r.backends.push_back(std::move(b));
}

const ComputeBackend& BackendRegistry::active() {
  Registry& r = registry();
  const ComputeBackend* a = r.active.load(std::memory_order_acquire);
  if (a != nullptr) return *a;
  // First dispatch: resolve the env var / "native" default under the
  // lock (set_active may race; whoever stores first wins, both are valid
  // selections of registered backends).
  std::lock_guard<std::mutex> lock(r.mu);
  a = r.active.load(std::memory_order_acquire);
  if (a != nullptr) return *a;
  const char* env = std::getenv("DRCELL_BACKEND");
  const std::string name =
      env != nullptr && env[0] != '\0' ? env : "native";
  const ComputeBackend* chosen = find_locked(r, name);
  DRCELL_CHECK_MSG(chosen != nullptr, "unknown compute backend '" + name +
                                          "' (DRCELL_BACKEND)");
  r.active.store(chosen, std::memory_order_release);
  return *chosen;
}

void BackendRegistry::set_active(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const ComputeBackend* chosen = find_locked(r, name);
  DRCELL_CHECK_MSG(chosen != nullptr,
                   "unknown compute backend '" + name + "'");
  r.active.store(chosen, std::memory_order_release);
}

const ComputeBackend* BackendRegistry::find(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return find_locked(r, name);
}

}  // namespace drcell
