// Runtime assertion macro that stays active in release builds for cheap
// invariants, plus a debug-only variant for the heavier ones.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace cilkm::detail {

/// Optional context provider appended to assert_fail output. The runtime
/// installs a worker-aware hook (worker id + the failing strand's pedigree —
/// see rt::install_assert_context) so the hard aborts that remain after the
/// graceful-degradation paths are diagnosable from CI logs alone. Default
/// nullptr keeps this header freestanding.
using AssertContextFn = void (*)(std::FILE*);
inline AssertContextFn assert_context_fn = nullptr;

[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "cilkm assertion failed: %s\n  at %s:%d\n  %s\n", expr,
               file, line, msg ? msg : "");
  if (assert_context_fn != nullptr) assert_context_fn(stderr);
  std::abort();
}

}  // namespace cilkm::detail

#define CILKM_CHECK(expr, msg)                                        \
  ((expr) ? (void)0                                                   \
          : ::cilkm::detail::assert_fail(#expr, __FILE__, __LINE__, msg))

// Debug-only (NDEBUG-gated) heavier checks.
#ifdef NDEBUG
#define CILKM_DCHECK(expr, msg) ((void)0)
#else
#define CILKM_DCHECK(expr, msg) CILKM_CHECK(expr, msg)
#endif
