#include "common/failpoint.h"

#include <unistd.h>

#include <map>

#include "common/thread_annotations.h"

namespace nncell {
namespace failpoint {

void Crash() { _exit(kCrashExitCode); }

#if NNCELL_FAILPOINTS

namespace internal {
std::atomic<int> g_armed_count{0};
}  // namespace internal

namespace {

struct SiteState {
  Action action = Action::kOff;
  int skip = 0;
  bool armed = false;
  uint64_t evaluations = 0;
};

// The site registry: one mutex guarding the whole map, so the thread-safety
// analysis can see the lock discipline (a bare function-local static map
// would be invisible to it). Heap-allocated and never destroyed to dodge
// static-destruction-order races with late Check() calls from detached
// threads. nncell-lint: allow(naked-new) process-lifetime singleton.
struct SiteRegistry {
  Mutex mu;
  std::map<std::string, SiteState> sites NNCELL_GUARDED_BY(mu);
};

SiteRegistry& Reg() {
  // nncell-lint: allow(naked-new) process-lifetime singleton, never freed
  static SiteRegistry* const reg = new SiteRegistry();
  return *reg;
}

}  // namespace

namespace internal {

Action CheckSlow(const char* name) {
  SiteRegistry& reg = Reg();
  MutexLock lock(reg.mu);
  SiteState& site = reg.sites[name];
  ++site.evaluations;
  if (!site.armed) return Action::kOff;
  if (site.skip > 0) {
    --site.skip;
    return Action::kOff;
  }
  // One-shot: fire and disarm, so recovery re-running the site succeeds.
  site.armed = false;
  // nncell-lint: allow(relaxed-atomics) mutated under registry mutex; hint only
  internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  return site.action;
}

}  // namespace internal

void Arm(const std::string& name, Action action, int skip) {
  SiteRegistry& reg = Reg();
  MutexLock lock(reg.mu);
  SiteState& site = reg.sites[name];
  if (!site.armed) {
    // nncell-lint: allow(relaxed-atomics) mutated under registry mutex; hint only
    internal::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  site.armed = true;
  site.action = action;
  site.skip = skip;
}

void DisarmAll() {
  SiteRegistry& reg = Reg();
  MutexLock lock(reg.mu);
  for (auto& [name, site] : reg.sites) {
    if (site.armed) {
      // nncell-lint: allow(relaxed-atomics) mutated under the registry mutex
      internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
    site = SiteState{};
  }
}

uint64_t Evaluations(const std::string& name) {
  SiteRegistry& reg = Reg();
  MutexLock lock(reg.mu);
  auto it = reg.sites.find(name);
  return it == reg.sites.end() ? 0 : it->second.evaluations;
}

#endif  // NNCELL_FAILPOINTS

}  // namespace failpoint
}  // namespace nncell
