#include "cellular/basestation.hpp"

#include <gtest/gtest.h>


#include "sim/rng.hpp"

namespace facs::cellular {
namespace {

TEST(BaseStation, StartsEmpty) {
  const BaseStation bs{0, 40};
  EXPECT_EQ(bs.capacityBu(), 40);
  EXPECT_EQ(bs.occupiedBu(), 0);
  EXPECT_EQ(bs.freeBu(), 40);
  EXPECT_EQ(bs.rtc(), 0);
  EXPECT_EQ(bs.nrtc(), 0);
  EXPECT_EQ(bs.activeCalls(), 0u);
  EXPECT_DOUBLE_EQ(bs.utilization(), 0.0);
}

TEST(BaseStation, RejectsNonPositiveCapacity) {
  EXPECT_THROW(BaseStation(0, 0), std::invalid_argument);
  EXPECT_THROW(BaseStation(0, -5), std::invalid_argument);
}

TEST(BaseStation, AllocateRoutesToDsCounters) {
  BaseStation bs{0, 40};
  bs.allocate(1, 5, /*real_time=*/true);    // voice -> RTC
  bs.allocate(2, 1, /*real_time=*/false);   // text  -> NRTC
  bs.allocate(3, 10, /*real_time=*/true);   // video -> RTC
  EXPECT_EQ(bs.rtc(), 15);
  EXPECT_EQ(bs.nrtc(), 1);
  EXPECT_EQ(bs.occupiedBu(), 16);
  EXPECT_EQ(bs.freeBu(), 24);
  EXPECT_EQ(bs.activeCalls(), 3u);
  EXPECT_TRUE(bs.carries(2));
  EXPECT_FALSE(bs.carries(99));
  EXPECT_DOUBLE_EQ(bs.utilization(), 16.0 / 40.0);
}

TEST(BaseStation, ReleaseRestoresCounters) {
  BaseStation bs{0, 40};
  bs.allocate(1, 10, true);
  bs.allocate(2, 1, false);
  bs.release(1);
  EXPECT_EQ(bs.rtc(), 0);
  EXPECT_EQ(bs.nrtc(), 1);
  EXPECT_EQ(bs.occupiedBu(), 1);
  bs.release(2);
  EXPECT_EQ(bs.occupiedBu(), 0);
  EXPECT_EQ(bs.activeCalls(), 0u);
}

TEST(BaseStation, CanFitBoundary) {
  BaseStation bs{0, 40};
  bs.allocate(1, 35, true);
  EXPECT_TRUE(bs.canFit(5));
  EXPECT_FALSE(bs.canFit(6));
  EXPECT_TRUE(bs.canFit(0));
  EXPECT_FALSE(bs.canFit(-1));
}

TEST(BaseStation, CapacityInvariantEnforced) {
  BaseStation bs{0, 40};
  bs.allocate(1, 40, true);
  EXPECT_THROW(bs.allocate(2, 1, false), std::logic_error);
  EXPECT_EQ(bs.occupiedBu(), 40);  // failed allocation left no residue
  EXPECT_EQ(bs.activeCalls(), 1u);
}

TEST(BaseStation, RejectsBadAllocations) {
  BaseStation bs{0, 40};
  EXPECT_THROW(bs.allocate(1, 0, true), std::invalid_argument);
  EXPECT_THROW(bs.allocate(1, -2, true), std::invalid_argument);
  bs.allocate(1, 5, true);
  EXPECT_THROW(bs.allocate(1, 5, true), std::invalid_argument);  // duplicate
}

TEST(BaseStation, ReleaseUnknownCallThrows) {
  BaseStation bs{0, 40};
  EXPECT_THROW(bs.release(7), std::invalid_argument);
}

TEST(BaseStation, AllocationLookup) {
  BaseStation bs{0, 40};
  bs.allocate(5, 10, true);
  const Allocation& a = bs.allocation(5);
  EXPECT_EQ(a.bu, 10);
  EXPECT_TRUE(a.real_time);
  EXPECT_THROW((void)bs.allocation(6), std::invalid_argument);
}

TEST(BaseStation, RandomChurnPreservesInvariants) {
  // Property: under arbitrary allocate/release churn the ledger never
  // exceeds capacity and RTC + NRTC always equals the sum of live records.
  BaseStation bs{0, 40};
  sim::Rng rng = sim::makeRng(99);
  std::vector<std::pair<CallId, int>> live;
  CallId next = 1;

  for (int step = 0; step < 5000; ++step) {
    if (sim::sampleIndex(rng, 3) != 0 || live.empty()) {
      const int bu = 1 + static_cast<int>(sim::sampleIndex(rng, 10));
      if (bs.canFit(bu)) {
        const bool rt = (bu != 1);
        bs.allocate(next, bu, rt);
        live.emplace_back(next, bu);
        ++next;
      }
    } else {
      const std::size_t i =
          sim::sampleIndex(rng, static_cast<std::uint32_t>(live.size()));
      bs.release(live[i].first);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    int expected = 0;
    for (const auto& [id, bu] : live) expected += bu;
    ASSERT_EQ(bs.occupiedBu(), expected);
    ASSERT_EQ(bs.rtc() + bs.nrtc(), expected);
    ASSERT_LE(bs.occupiedBu(), bs.capacityBu());
    ASSERT_EQ(bs.activeCalls(), live.size());
  }
}

}  // namespace
}  // namespace facs::cellular
