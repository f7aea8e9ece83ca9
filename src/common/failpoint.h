#ifndef NNCELL_COMMON_FAILPOINT_H_
#define NNCELL_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

// Fault-injection points for the durability layer. A failpoint is a named
// site inside the snapshot / WAL I/O paths (the full list is in
// docs/PERSISTENCE.md); tests arm a site with an Action and the next
// evaluation of that site injects the fault:
//
//   * kError      -- the operation fails with Status::Internal before
//                    touching the file,
//   * kShortWrite -- only the first half of the bytes is written, then the
//                    operation fails (models ENOSPC / torn buffered write),
//   * kCrash      -- for write sites: half the bytes are written and the
//                    process _exit()s (a torn write made durable by the
//                    kernel -- exactly what a crash mid-write leaves on
//                    disk); for non-write sites: immediate _exit().
//
// Disarmed sites cost one relaxed atomic load (a process-wide armed
// counter); with -DNNCELL_FAILPOINTS=0 (CMake option NNCELL_FAILPOINTS=OFF,
// the recommended release setting) the whole harness compiles out and
// Check() is a constant.
//
// Arming is one-shot: a site fires once and disarms itself, so a recovery
// path re-running the same site succeeds. Arm(..., skip = n) lets the site
// pass n times before firing, which is how the crash matrix reaches the
// n-th WAL append or the second checkpoint.

#ifndef NNCELL_FAILPOINTS
#define NNCELL_FAILPOINTS 1
#endif

namespace nncell {
namespace failpoint {

enum class Action { kOff = 0, kError, kShortWrite, kCrash };

// Exit status of an injected crash; the crash-matrix harness asserts the
// forked child died with exactly this code, proving the failpoint fired.
inline constexpr int kCrashExitCode = 86;

// Immediately terminates the process without flushing anything (_exit).
[[noreturn]] void Crash();

#if NNCELL_FAILPOINTS

namespace internal {
extern std::atomic<int> g_armed_count;
Action CheckSlow(const char* name);
}  // namespace internal

// Evaluates the failpoint `name`. Fast path (nothing armed anywhere):
// one relaxed load.
inline Action Check(const char* name) {
  // nncell-lint: allow(relaxed-atomics) pure hint; CheckSlow re-checks under mutex
  if (internal::g_armed_count.load(std::memory_order_relaxed) == 0) {
    return Action::kOff;
  }
  return internal::CheckSlow(name);
}

// Arms `name` to fire `action` after letting `skip` evaluations pass.
// Re-arming an armed site replaces its configuration.
void Arm(const std::string& name, Action action, int skip = 0);

// Disarms every site (tests call it in teardown).
void DisarmAll();

// How many times `name` was evaluated since the last DisarmAll, counted
// only while at least one site was armed (the disarmed fast path records
// nothing). Lets tests assert a scenario actually reached the site.
uint64_t Evaluations(const std::string& name);

#else  // !NNCELL_FAILPOINTS

inline Action Check(const char*) { return Action::kOff; }
inline void Arm(const std::string&, Action, int = 0) {}
inline void DisarmAll() {}
inline uint64_t Evaluations(const std::string&) { return 0; }

#endif  // NNCELL_FAILPOINTS

}  // namespace failpoint
}  // namespace nncell

#endif  // NNCELL_COMMON_FAILPOINT_H_
