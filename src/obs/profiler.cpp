#include "obs/profiler.hpp"

namespace cilkm::obs {

namespace detail {
std::atomic<bool> g_profiler_enabled{false};
}  // namespace detail

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

}  // namespace cilkm::obs
