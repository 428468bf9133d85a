// Work-stealing deque tests: owner LIFO, thief FIFO, the conditional
// take_if used by the fork-join fast path, and a concurrent stress test.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "runtime/deque.hpp"
#include "runtime/frame.hpp"

namespace {

using cilkm::rt::Deque;
using cilkm::rt::SpawnFrame;

TEST(Deque, StartsEmpty) {
  Deque dq;
  EXPECT_TRUE(dq.empty());
  EXPECT_EQ(dq.take_any(), nullptr);
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(Deque, OwnerTakesLifo) {
  Deque dq;
  SpawnFrame f1, f2, f3;
  dq.push(&f1);
  dq.push(&f2);
  dq.push(&f3);
  EXPECT_EQ(dq.take_any(), &f3);
  EXPECT_EQ(dq.take_any(), &f2);
  EXPECT_EQ(dq.take_any(), &f1);
  EXPECT_EQ(dq.take_any(), nullptr);
}

TEST(Deque, ThiefStealsFifo) {
  Deque dq;
  SpawnFrame f1, f2, f3;
  dq.push(&f1);
  dq.push(&f2);
  dq.push(&f3);
  EXPECT_EQ(dq.steal(), &f1);  // oldest (shallowest) first
  EXPECT_EQ(dq.steal(), &f2);
  EXPECT_EQ(dq.steal(), &f3);
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(Deque, TakeIfMatchesOwnFrame) {
  Deque dq;
  SpawnFrame mine;
  dq.push(&mine);
  EXPECT_EQ(dq.take_if(&mine), &mine);
  EXPECT_TRUE(dq.empty());
}

TEST(Deque, TakeIfLeavesOlderEntryWhenOwnFrameWasStolen) {
  Deque dq;
  SpawnFrame outer, mine;
  dq.push(&outer);
  dq.push(&mine);
  EXPECT_EQ(dq.steal(), &outer);  // thief takes the old entry...
  SpawnFrame* thief2 = dq.steal();  // ...and another thief takes ours
  EXPECT_EQ(thief2, &mine);
  EXPECT_EQ(dq.take_if(&mine), nullptr);  // owner finds nothing
}

TEST(Deque, TakeIfRestoresOlderBottomEntry) {
  Deque dq;
  SpawnFrame outer, mine;
  dq.push(&outer);
  dq.push(&mine);
  ASSERT_EQ(dq.steal(), &outer);
  // Simulate: our frame got stolen, an even older frame... here instead we
  // re-push outer below and check take_if(&outer-mismatch) keeps it.
  SpawnFrame* stolen = dq.steal();
  ASSERT_EQ(stolen, &mine);
  dq.push(&outer);
  // Owner expected `mine` but bottom is `outer`: must return null and leave
  // outer available.
  EXPECT_EQ(dq.take_if(&mine), nullptr);
  EXPECT_EQ(dq.take_any(), &outer);
}

TEST(Deque, InterleavedPushTakeSteal) {
  Deque dq;
  std::vector<SpawnFrame> frames(100);
  for (int i = 0; i < 100; ++i) {
    dq.push(&frames[static_cast<std::size_t>(i)]);
    if (i % 3 == 0) EXPECT_NE(dq.take_any(), nullptr);
    if (i % 7 == 0) dq.steal();
  }
  int remaining = 0;
  while (dq.take_any() != nullptr) ++remaining;
  EXPECT_GT(remaining, 0);
}

TEST(DequeBatch, StealsHalfOldestFirst) {
  Deque dq;
  std::vector<SpawnFrame> frames(8);
  for (auto& f : frames) dq.push(&f);
  SpawnFrame* out[Deque::kMaxStealBatch];
  // ceil(8/2) = 4, oldest (shallowest) first.
  ASSERT_EQ(dq.steal_batch(out, Deque::kMaxStealBatch), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], &frames[static_cast<std::size_t>(i)]);
  // The younger half stays with the owner, still in LIFO order.
  EXPECT_EQ(dq.take_any(), &frames[7]);
  EXPECT_EQ(dq.take_any(), &frames[6]);
  EXPECT_EQ(dq.take_any(), &frames[5]);
  EXPECT_EQ(dq.take_any(), &frames[4]);
  EXPECT_EQ(dq.take_any(), nullptr);
}

TEST(DequeBatch, RoundsHalfUpOnOddCounts) {
  Deque dq;
  std::vector<SpawnFrame> frames(5);
  for (auto& f : frames) dq.push(&f);
  SpawnFrame* out[Deque::kMaxStealBatch];
  EXPECT_EQ(dq.steal_batch(out, Deque::kMaxStealBatch), 3u);  // ceil(5/2)
}

TEST(DequeBatch, RespectsCallerCap) {
  Deque dq;
  std::vector<SpawnFrame> frames(10);
  for (auto& f : frames) dq.push(&f);
  SpawnFrame* out[Deque::kMaxStealBatch];
  ASSERT_EQ(dq.steal_batch(out, 2), 2u);
  EXPECT_EQ(out[0], &frames[0]);
  EXPECT_EQ(out[1], &frames[1]);
}

TEST(DequeBatch, CapOneIsClassicSingleSteal) {
  Deque dq;
  std::vector<SpawnFrame> frames(6);
  for (auto& f : frames) dq.push(&f);
  SpawnFrame* out[1];
  ASSERT_EQ(dq.steal_batch(out, 1), 1u);
  EXPECT_EQ(out[0], &frames[0]);
}

TEST(DequeBatch, SingleEntryAndEmptyDeques) {
  Deque dq;
  SpawnFrame* out[Deque::kMaxStealBatch];
  EXPECT_EQ(dq.steal_batch(out, Deque::kMaxStealBatch), 0u);  // empty
  SpawnFrame f;
  dq.push(&f);
  ASSERT_EQ(dq.steal_batch(out, Deque::kMaxStealBatch), 1u);
  EXPECT_EQ(out[0], &f);
  EXPECT_TRUE(dq.empty());
}

TEST(DequeStress, ConcurrentStealersReceiveEachEntryExactlyOnce) {
  Deque dq;
  constexpr int kFrames = 20000;
  constexpr int kThieves = 4;
  std::vector<SpawnFrame> frames(kFrames);

  std::atomic<bool> start{false};
  std::atomic<int> taken_by_owner{0};
  std::vector<std::vector<SpawnFrame*>> stolen(kThieves);

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (true) {
        SpawnFrame* f = dq.steal();
        if (f != nullptr) {
          stolen[t].push_back(f);
          continue;
        }
        if (taken_by_owner.load(std::memory_order_acquire) < 0 && dq.empty()) {
          break;
        }
        std::this_thread::yield();
      }
    });
  }

  start.store(true, std::memory_order_release);
  int own = 0;
  for (int i = 0; i < kFrames; ++i) {
    dq.push(&frames[static_cast<std::size_t>(i)]);
    if (i % 2 == 1) {
      if (dq.take_any() != nullptr) ++own;
    }
  }
  while (dq.take_any() != nullptr) ++own;
  taken_by_owner.store(-1, std::memory_order_release);
  for (auto& th : thieves) th.join();

  std::set<SpawnFrame*> seen;
  int stolen_total = 0;
  for (const auto& v : stolen) {
    for (SpawnFrame* f : v) {
      EXPECT_TRUE(seen.insert(f).second) << "frame stolen twice";
      ++stolen_total;
    }
  }
  EXPECT_EQ(own + stolen_total, kFrames);
}

TEST(DequeStress, ConcurrentBatchStealersLoseNoFrameAndDuplicateNone) {
  // The steal-half torture chamber: the owner pushes and pops (both
  // unconditional take_any and the take_if conflict machinery) while four
  // thieves rip out batches of different sizes — single, pairs, and
  // unbounded halves — so the exc_/thief-lock protocol, the lock-free
  // single-steal fallback, and the owner's conflict path all interleave.
  // Every frame must surface exactly once across owner pops and thief
  // batches.
  Deque dq;
  constexpr int kFrames = 20000;
  constexpr int kThieves = 4;
  std::vector<SpawnFrame> frames(kFrames);

  std::atomic<bool> start{false};
  std::atomic<int> done{0};
  std::vector<std::vector<SpawnFrame*>> stolen(kThieves);

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      // Thief 0 steals singles; the rest use growing batch caps so single
      // CASes and locked batch transactions contend on the same victim.
      const unsigned cap = t == 0 ? 1u
                                  : (t == 1 ? 2u : Deque::kMaxStealBatch);
      SpawnFrame* buf[Deque::kMaxStealBatch];
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (true) {
        const unsigned got = dq.steal_batch(buf, cap);
        if (got > 0) {
          for (unsigned i = 0; i < got; ++i) stolen[t].push_back(buf[i]);
          continue;
        }
        if (done.load(std::memory_order_acquire) != 0 && dq.empty()) break;
        std::this_thread::yield();
      }
    });
  }

  start.store(true, std::memory_order_release);
  int own = 0;
  for (int i = 0; i < kFrames; ++i) {
    SpawnFrame* f = &frames[static_cast<std::size_t>(i)];
    dq.push(f);
    if (i % 2 == 1) {
      // Alternate the owner's two pop flavours; take_if exercises the
      // conditional path (mismatch re-push included) under batch fire.
      if (i % 4 == 1) {
        if (dq.take_any() != nullptr) ++own;
      } else {
        if (dq.take_if(f) != nullptr) ++own;
      }
    }
  }
  while (dq.take_any() != nullptr) ++own;
  done.store(1, std::memory_order_release);
  for (auto& th : thieves) th.join();

  std::set<SpawnFrame*> seen;
  int stolen_total = 0;
  for (const auto& v : stolen) {
    for (SpawnFrame* f : v) {
      EXPECT_TRUE(seen.insert(f).second) << "frame stolen twice";
      ++stolen_total;
    }
  }
  EXPECT_EQ(own + stolen_total, kFrames);
}

TEST(DequeStress, DrainedEveryRoundEachFrameSurfacesOnce) {
  // The owner pushes four frames and pops all four each round, so nearly
  // every pop races a thief for the last entries: the window that only the
  // asymmetric Dekker pair (the owner's unfenced pop against the thieves'
  // heavy_fence()) closes. A single-steal thief and two batch thieves spin
  // on the victim, and every frame of every round must surface exactly once
  // across the owner's pops and the thieves' takes.
  Deque dq;
  constexpr std::size_t kRounds = 50000;
  constexpr std::size_t kPerRound = 4;
  constexpr unsigned kCaps[] = {1u, 2u, Deque::kMaxStealBatch};
  std::vector<SpawnFrame> frames(kRounds * kPerRound);

  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::vector<std::vector<SpawnFrame*>> taken(std::size(kCaps) + 1);

  std::vector<std::thread> thieves;
  for (std::size_t t = 0; t < std::size(kCaps); ++t) {
    thieves.emplace_back([&, t] {
      SpawnFrame* buf[Deque::kMaxStealBatch];
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (true) {
        const unsigned got = dq.steal_batch(buf, kCaps[t]);
        taken[t].insert(taken[t].end(), buf, buf + got);
        if (got == 0 && done.load(std::memory_order_acquire) && dq.empty()) {
          break;
        }
      }
    });
  }

  start.store(true, std::memory_order_release);
  std::vector<SpawnFrame*>& own = taken.back();
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kPerRound; ++i) {
      dq.push(&frames[r * kPerRound + i]);
    }
    for (std::size_t i = 0; i < kPerRound; ++i) {
      if (SpawnFrame* f = dq.take_any()) own.push_back(f);
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  std::vector<int> surfaced(frames.size(), 0);
  for (const auto& v : taken) {
    for (SpawnFrame* f : v) {
      ++surfaced[static_cast<std::size_t>(f - frames.data())];
    }
  }
  std::size_t duplicated = 0;
  std::size_t lost = 0;
  for (const int n : surfaced) {
    if (n > 1) ++duplicated;
    if (n == 0) ++lost;
  }
  EXPECT_EQ(duplicated, 0u) << "frames that surfaced more than once";
  EXPECT_EQ(lost, 0u) << "frames that never surfaced";
}

}  // namespace
