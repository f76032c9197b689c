#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace facs::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.peekTime(), std::nullopt);
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<std::string> q;
  q.push(3.0, "c");
  q.push(1.0, "a");
  q.push(2.0, "b");
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.peekTime(), std::optional<double>{1.0});
  EXPECT_EQ(q.pop()->payload, "a");
  EXPECT_EQ(q.pop()->payload, "b");
  EXPECT_EQ(q.pop()->payload, "c");
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  EventQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(5.0, i);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(q.pop()->payload, i);
  }
}

TEST(EventQueue, NowAdvancesWithPops) {
  EventQueue<int> q;
  q.push(1.5, 1);
  q.push(4.0, 2);
  (void)q.pop();
  EXPECT_DOUBLE_EQ(q.now(), 1.5);
  (void)q.pop();
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue<int> q;
  q.push(5.0, 1);
  (void)q.pop();  // clock now 5.0
  EXPECT_THROW(q.push(4.9, 2), std::invalid_argument);
  EXPECT_NO_THROW(q.push(5.0, 3));  // same instant is fine
  EXPECT_THROW(q.push(std::numeric_limits<double>::quiet_NaN(), 4),
               std::invalid_argument);
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue<int> q;
  Rng rng = makeRng(7);
  double clock = 0.0;
  double last_seen = 0.0;
  int pushed = 0;
  int popped = 0;
  for (int round = 0; round < 2000; ++round) {
    if (q.empty() || (round % 3 != 0)) {
      q.push(clock + sampleUniform(rng, 0.0, 10.0), pushed++);
    } else {
      const auto e = q.pop();
      ASSERT_TRUE(e.has_value());
      EXPECT_GE(e->time_s, last_seen);
      last_seen = e->time_s;
      clock = e->time_s;
      ++popped;
    }
  }
  while (const auto e = q.pop()) {
    EXPECT_GE(e->time_s, last_seen);
    last_seen = e->time_s;
    ++popped;
  }
  EXPECT_EQ(pushed, popped);
}

TEST(EventQueue, EntryCarriesSequenceNumbers) {
  EventQueue<int> q;
  q.push(1.0, 10);
  q.push(1.0, 20);
  const auto a = q.pop();
  const auto b = q.pop();
  ASSERT_TRUE(a && b);
  EXPECT_LT(a->seq, b->seq);
}

}  // namespace
}  // namespace facs::sim
