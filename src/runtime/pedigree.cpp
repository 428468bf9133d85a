#include "runtime/pedigree.hpp"

namespace cilkm::rt {

namespace {
constinit thread_local StrandState tls_strand;
}  // namespace

// Out of line and noinline on purpose — see the declaration. An inlined
// accessor would let the address of tls_strand be computed once and
// reused after a fiber migrates to another OS thread, silently mutating
// the departed thread's record (observed as a TSan race between
// fork2join's post-join reseat and the other thread's own spawns).
//
// On a 64-byte boundary, like parallel_for_leaf: every fork2join and its
// serial elision call it at least three times, and when code placement
// elsewhere made its 25 bytes straddle two cache lines, the spawn
// benchmark's mm and serial cells ran 5-21% slower (4-vCPU Xeon, GCC 12).
__attribute__((noinline, aligned(64))) StrandState& current_strand() noexcept {
  return tls_strand;
}

}  // namespace cilkm::rt
