// Context-switch and stack-pool tests: the fiber substrate under the
// scheduler (Cilk-M's cactus stack stand-in).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/context.hpp"
#include "runtime/stack_pool.hpp"

namespace {

using cilkm::rt::Context;
using cilkm::rt::Fiber;
using cilkm::rt::StackPool;

struct PingPong {
  Context main_ctx;
  Context fiber_ctx;
  std::vector<int> trace;
};

void pingpong_fn(void* arg) {
  auto* pp = static_cast<PingPong*>(arg);
  pp->trace.push_back(1);
  cilkm_ctx_switch(&pp->fiber_ctx, &pp->main_ctx);
  pp->trace.push_back(3);
  cilkm_ctx_switch(&pp->fiber_ctx, &pp->main_ctx);
  // never reached
}

TEST(Context, SwitchRoundTripPreservesControlFlow) {
  PingPong pp;
  Fiber* fiber = StackPool::instance().acquire();
  pp.trace.push_back(0);
  cilkm_ctx_start(&pp.main_ctx, fiber->stack_top, &pingpong_fn, &pp);
  pp.trace.push_back(2);
  cilkm_ctx_switch(&pp.main_ctx, &pp.fiber_ctx);
  pp.trace.push_back(4);
  EXPECT_EQ(pp.trace, (std::vector<int>{0, 1, 2, 3, 4}));
  StackPool::instance().release(fiber);
}

struct DeepState {
  Context main_ctx;
  Context fiber_ctx;
  std::uint64_t result = 0;
};

std::uint64_t deep_sum(int n) {
  if (n == 0) return 0;
  // Prevent tail-call elision so the fiber stack is really exercised.
  volatile std::uint64_t v = static_cast<std::uint64_t>(n);
  return v + deep_sum(n - 1);
}

void deep_fn(void* arg) {
  auto* state = static_cast<DeepState*>(arg);
  state->result = deep_sum(4000);  // a few hundred KB of frames
  cilkm_ctx_switch(&state->fiber_ctx, &state->main_ctx);
}

TEST(Context, FiberStackSupportsDeepRecursion) {
  DeepState state;
  Fiber* fiber = StackPool::instance().acquire();
  cilkm_ctx_start(&state.main_ctx, fiber->stack_top, &deep_fn, &state);
  EXPECT_EQ(state.result, 4000ull * 4001 / 2);
  StackPool::instance().release(fiber);
}

struct ArgCheck {
  Context main_ctx;
  Context dummy_save;  // save slot for the dying fiber; never resumed
  void* seen = nullptr;
};

void arg_fn(void* arg) {
  auto* check = static_cast<ArgCheck*>(arg);
  check->seen = arg;
  cilkm_ctx_switch(&check->dummy_save, &check->main_ctx);
}

TEST(Context, ArgumentIsDeliveredToEntryFunction) {
  ArgCheck check;
  Fiber* fiber = StackPool::instance().acquire();
  cilkm_ctx_start(&check.main_ctx, fiber->stack_top, &arg_fn, &check);
  EXPECT_EQ(check.seen, &check);
  StackPool::instance().release(fiber);
}

TEST(StackPool, RecyclesFibers) {
  // Recycle through an explicit per-worker cache: the shared shard may be
  // fed or drained by other pools' workers between the release and the
  // re-acquire, so the local cache is the deterministic way to observe
  // reuse.
  auto& pool = StackPool::instance();
  cilkm::rt::LocalFiberCache cache;
  Fiber* f1 = pool.acquire(&cache);
  pool.release(f1, &cache);
  Fiber* f2 = pool.acquire(&cache);
  EXPECT_EQ(f1, f2);  // LIFO reuse
  pool.release(f2, &cache);
  pool.flush(cache);
}

TEST(StackPool, StacksAreDistinctAndSized) {
  auto& pool = StackPool::instance();
  Fiber* f1 = pool.acquire();
  Fiber* f2 = pool.acquire();
  EXPECT_NE(f1->alloc_base, f2->alloc_base);
  EXPECT_EQ(f1->alloc_size, StackPool::kDefaultStackBytes);
  EXPECT_EQ(static_cast<std::byte*>(f1->stack_top) - f1->alloc_base,
            static_cast<std::ptrdiff_t>(f1->alloc_size));
  pool.release(f1);
  pool.release(f2);
}

}  // namespace
