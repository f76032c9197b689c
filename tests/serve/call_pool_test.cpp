/// \file call_pool_test.cpp
/// The slab/freelist call pool: LIFO recycling, occupant-based staleness,
/// slab growth only at new high-water marks, deterministic live-slot
/// iteration, slots constructed only when first handed out — the storage
/// contract behind "memory proportional to concurrent calls, not cumulative
/// calls".

#include "serve/call_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace facs::serve {
namespace {

struct Payload {
  int value = 0;
  explicit Payload(int v) : value{v} {}
};

TEST(CallPool, AcquireReleaseRecyclesLifo) {
  CallPool<Payload> pool;
  const std::uint32_t a = pool.acquire(1, 10);
  const std::uint32_t b = pool.acquire(2, 20);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.at(a).value, 10);
  EXPECT_EQ(pool.at(b).value, 20);
  pool.release(a);
  pool.release(b);
  // LIFO: the most recently released slot hands out first, so a fixed
  // release order yields a fixed acquisition order (determinism).
  EXPECT_EQ(pool.acquire(3, 30), b);
  EXPECT_EQ(pool.acquire(4, 40), a);
}

TEST(CallPool, OccupantIdentifiesStaleSlots) {
  CallPool<Payload> pool;
  const std::uint32_t slot = pool.acquire(7, 70);
  EXPECT_EQ(pool.occupantOf(slot), 7u);
  pool.release(slot);
  EXPECT_EQ(pool.occupantOf(slot), 0u);  // free slot: occupant cleared
  // A recycled slot names its NEW occupant — an event still carrying
  // (slot, call 7) now reads as stale.
  const std::uint32_t again = pool.acquire(9, 90);
  ASSERT_EQ(again, slot);
  EXPECT_EQ(pool.occupantOf(slot), 9u);
  EXPECT_NE(pool.occupantOf(slot), 7u);
}

TEST(CallPool, StatsTrackHighWaterAndLifetimeCounts) {
  CallPool<Payload> pool;
  EXPECT_EQ(pool.stats().capacity, 0u);
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 5; ++i) slots.push_back(pool.acquire(i + 1, i));
  CallPool<Payload>::Stats s = pool.stats();
  EXPECT_EQ(s.live, 5u);
  EXPECT_EQ(s.high_water, 5u);
  EXPECT_EQ(s.acquired, 5u);
  EXPECT_EQ(s.released, 0u);
  EXPECT_EQ(s.grow_events, 1u);
  EXPECT_EQ(s.capacity, 1024u);  // one slab

  for (const std::uint32_t slot : slots) pool.release(slot);
  s = pool.stats();
  EXPECT_EQ(s.live, 0u);
  EXPECT_EQ(s.high_water, 5u);  // peak, not current
  EXPECT_EQ(s.released, 5u);

  // Churn below the high-water mark: counters move, allocation does not.
  for (int round = 0; round < 100; ++round) {
    const std::uint32_t slot = pool.acquire(1000 + round, round);
    pool.release(slot);
  }
  s = pool.stats();
  EXPECT_EQ(s.grow_events, 1u);
  EXPECT_EQ(s.capacity, 1024u);
  EXPECT_EQ(s.high_water, 5u);
  EXPECT_EQ(s.acquired, 105u);
}

TEST(CallPool, GrowsBySlabWhenFreelistExhausted) {
  CallPool<Payload> pool;
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 1024; ++i) slots.push_back(pool.acquire(i + 1, i));
  EXPECT_EQ(pool.stats().grow_events, 1u);
  EXPECT_EQ(pool.stats().capacity, 1024u);
  const std::uint32_t overflow = pool.acquire(5000, -1);
  EXPECT_EQ(pool.stats().grow_events, 2u);
  EXPECT_EQ(pool.stats().capacity, 2048u);
  EXPECT_EQ(pool.at(overflow).value, -1);
  // Slots keep stable addresses across growth (slabs never move).
  EXPECT_EQ(pool.at(slots[0]).value, 0);
  EXPECT_EQ(pool.at(slots[1023]).value, 1023);
}

TEST(CallPool, ForEachLiveVisitsInSlotOrder) {
  CallPool<Payload> pool;
  const std::uint32_t a = pool.acquire(11, 1);
  const std::uint32_t b = pool.acquire(22, 2);
  const std::uint32_t c = pool.acquire(33, 3);
  pool.release(b);
  std::vector<std::uint32_t> visited;
  pool.forEachLive([&](std::uint32_t slot, cellular::CallId occupant,
                       Payload& p) {
    visited.push_back(slot);
    if (slot == a) {
      EXPECT_EQ(occupant, 11u);
      EXPECT_EQ(p.value, 1);
    }
    if (slot == c) {
      EXPECT_EQ(occupant, 33u);
      EXPECT_EQ(p.value, 3);
    }
  });
  // Slot-index order, released slot skipped — the deterministic iteration
  // forceDropCell's victim ordering builds on.
  ASSERT_EQ(visited.size(), 2u);
  EXPECT_EQ(visited[0], std::min(a, c));
  EXPECT_EQ(visited[1], std::max(a, c));
}

/// Counts its live instances, so a test sees every construction and
/// destruction the pool performs.
struct Counted {
  static inline int constructed = 0;
  static inline int destroyed = 0;
  int value = 0;
  explicit Counted(int v) : value{v} { ++constructed; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() { ++destroyed; }
};

TEST(CallPool, ConstructsOnlySlotsItHandsOut) {
  Counted::constructed = 0;
  Counted::destroyed = 0;
  {
    CallPool<Counted> pool;
    const std::uint32_t a = pool.acquire(1, 10);
    const std::uint32_t b = pool.acquire(2, 20);
    const std::uint32_t c = pool.acquire(3, 30);
    EXPECT_EQ(pool.stats().capacity, 1024u);  // a whole slab of storage...
    EXPECT_EQ(pool.constructed(), 3u);        // ...of which 3 slots are built
    EXPECT_EQ(Counted::constructed, 3);
    pool.release(b);
    EXPECT_EQ(Counted::destroyed, 1);
    // A released slot is reused before any fresh one is constructed.
    EXPECT_EQ(pool.acquire(4, 40), b);
    EXPECT_EQ(pool.constructed(), 3u);
    pool.release(a);
    pool.release(c);
    EXPECT_EQ(Counted::constructed, 4);
    EXPECT_EQ(Counted::destroyed, 3);
  }
  // The pool's destructor destroys exactly the one value still live and
  // nothing in the 1021 slots never handed out.
  EXPECT_EQ(Counted::constructed, 4);
  EXPECT_EQ(Counted::destroyed, 4);
}

TEST(CallPool, SlotOrderMatchesAnEagerlyThreadedSlab) {
  // Reference: the eager pool threads each new slab onto its freelist in
  // ascending order and pushes released slots on the front; acquire pops
  // the front. The lazy pool must hand out the same slots in the same
  // order, across the slab boundary.
  std::deque<std::uint32_t> eager;
  std::uint64_t eager_capacity = 0;
  std::uint64_t eager_grows = 0;
  CallPool<Payload> pool;
  std::vector<std::uint32_t> live;
  cellular::CallId next_id = 1;
  const auto acquire = [&] {
    if (eager.empty()) {
      for (std::uint64_t i = 0; i < 1024; ++i) {
        eager.push_back(static_cast<std::uint32_t>(eager_capacity + i));
      }
      eager_capacity += 1024;
      ++eager_grows;
    }
    const std::uint32_t want = eager.front();
    eager.pop_front();
    const std::uint32_t got = pool.acquire(next_id, static_cast<int>(next_id));
    ++next_id;
    EXPECT_EQ(got, want);
    live.push_back(got);
  };
  const auto release = [&](std::size_t at) {
    const std::uint32_t slot = live[at];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    pool.release(slot);
    eager.push_front(slot);
  };
  for (int i = 0; i < 1000; ++i) acquire();
  for (int i = 0; i < 40; ++i) release((i * 37) % live.size());
  for (int i = 0; i < 100; ++i) acquire();  // 40 recycled, then fresh
  for (int i = 0; i < 30; ++i) release((i * 53 + 11) % live.size());
  for (int i = 0; i < 1100; ++i) acquire();  // crosses into slab 2 and 3
  EXPECT_EQ(pool.stats().capacity, eager_capacity);
  EXPECT_EQ(pool.stats().grow_events, eager_grows);
  EXPECT_EQ(pool.live(), live.size());
  for (const std::uint32_t slot : live) {
    EXPECT_EQ(pool.at(slot).value, static_cast<int>(pool.occupantOf(slot)));
  }
}

TEST(CallPool, ForEachLiveAndStatsAfterReleasesAcrossSlabs) {
  CallPool<Payload> pool;
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 1500; ++i) slots.push_back(pool.acquire(i + 1, i));
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i % 3 == 0) {
      pool.release(slots[i]);
    } else {
      expected.push_back(slots[i]);
    }
  }
  std::vector<std::uint32_t> visited;
  pool.forEachLive([&](std::uint32_t slot, cellular::CallId occupant,
                       Payload& p) {
    visited.push_back(slot);
    EXPECT_EQ(static_cast<int>(occupant), p.value + 1);
  });
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(visited, expected);
  const CallPool<Payload>::Stats s = pool.stats();
  EXPECT_EQ(s.capacity, 2048u);
  EXPECT_EQ(s.grow_events, 2u);
  EXPECT_EQ(s.live, 1000u);
  EXPECT_EQ(s.high_water, 1500u);
  EXPECT_EQ(s.acquired, 1500u);
  EXPECT_EQ(s.released, 500u);
  EXPECT_EQ(pool.constructed(), 1500u);
}

}  // namespace
}  // namespace facs::serve
