// Emulated TLMM region tests: the per-worker private region the mm policy's
// reducer lookups resolve through — page-rounded capacity, zero-filled
// pages, and one offset naming a different view on each thread.
#include <gtest/gtest.h>

#include <thread>

#include "tlmm/region.hpp"

namespace {

using namespace cilkm::tlmm;

TEST(WorkerRegion, CapacityIsPageRoundedAndWritable) {
  WorkerRegion region(10000);
  EXPECT_EQ(region.capacity() % kPageSize, 0u);
  EXPECT_GE(region.capacity(), 10000u);
  region.at(0)[0] = std::byte{1};
  region.at(region.capacity() - 1)[0] = std::byte{2};
  EXPECT_EQ(region.base()[0], std::byte{1});
}

TEST(WorkerRegion, FreshRegionIsZeroFilled) {
  WorkerRegion region(1 << 20);
  for (std::size_t i = 0; i < (1u << 20); i += 4096) {
    EXPECT_EQ(region.base()[i], std::byte{0});
  }
}

TEST(WorkerRegion, TlsResolveUsesCurrentThreadsRegion) {
  WorkerRegion r1(1 << 16), r2(1 << 16);
  r1.base()[128] = std::byte{0x11};
  r2.base()[128] = std::byte{0x22};

  set_current_region(&r1);
  EXPECT_EQ(*resolve(128), std::byte{0x11});

  std::thread other([&] {
    set_current_region(&r2);
    // Same "address" (offset 128), different thread, different view — the
    // emulated TLMM property.
    EXPECT_EQ(*resolve(128), std::byte{0x22});
    set_current_region(nullptr);
  });
  other.join();

  EXPECT_EQ(*resolve(128), std::byte{0x11});
  set_current_region(nullptr);
}

}  // namespace
