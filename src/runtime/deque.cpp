#include "runtime/deque.hpp"

#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace cilkm::rt {

namespace {

/// Run membarrier(2) command `cmd`; on failure, abort with the errno and
/// what the kernel must provide.
void membarrier_or_die(int cmd, const char* name) noexcept {
  const long rc = syscall(SYS_membarrier, cmd, 0u, 0);
  if (rc == 0) return;
  const int err = errno;
  char msg[256];
  std::snprintf(msg, sizeof msg,
                "membarrier(%s) failed: %s (errno %d); the work-stealing deque "
                "needs Linux >= 4.14 with membarrier(2) not blocked by seccomp",
                name, std::strerror(err), err);
  CILKM_CHECK(rc == 0, msg);
}

}  // namespace

void heavy_fence() noexcept {
  membarrier_or_die(MEMBARRIER_CMD_PRIVATE_EXPEDITED,
                    "MEMBARRIER_CMD_PRIVATE_EXPEDITED");
}

Deque::Deque() noexcept {
  [[maybe_unused]] static const bool registered = [] {
    membarrier_or_die(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED,
                      "MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED");
    return true;
  }();
}

}  // namespace cilkm::rt
