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
__attribute__((noinline)) StrandState& current_strand() noexcept {
  return tls_strand;
}

}  // namespace cilkm::rt
