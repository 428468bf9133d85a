#include "obs/profiler.hpp"

namespace cilkm::obs {

namespace detail {
std::atomic<bool> g_profiler_enabled{false};
std::atomic<std::uint64_t (*)() noexcept> g_profiler_clock{&now_ns};
}  // namespace detail

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

}  // namespace cilkm::obs
