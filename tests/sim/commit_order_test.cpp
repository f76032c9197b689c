#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <queue>
#include <vector>

#include "sim/shard.hpp"

namespace facs::sim {
namespace {

using Heap =
    std::priority_queue<CommitEntry, std::vector<CommitEntry>, CommitLater>;

CommitEntry entry(double time_s, ShardEventKind kind, cellular::CallId call) {
  return CommitEntry{time_s, ShardEvent{kind, call, 0, 0}};
}

// A commit group's heap is the only order its events are kept in, so every
// insertion order of the same events must pop the same canonical sequence:
// time, then kind (End < Decision < Move), then call id.
TEST(CommitOrder, HeapPopsCanonicallyInEveryInsertionOrder) {
  using K = ShardEventKind;
  const std::array<CommitEntry, 7> canonical{
      entry(0.5, K::Move, 9),      entry(1.0, K::End, 4),
      entry(1.0, K::End, 7),       entry(1.0, K::Decision, 2),
      entry(1.0, K::Decision, 5),  entry(1.0, K::Move, 3),
      entry(2.0, K::End, 1)};

  std::array<std::size_t, canonical.size()> order{};
  std::iota(order.begin(), order.end(), std::size_t{0});
  int permutations = 0;
  do {
    Heap heap;
    for (const std::size_t i : order) heap.push(canonical[i]);
    for (const CommitEntry& want : canonical) {
      ASSERT_FALSE(heap.empty());
      const CommitEntry got = heap.top();
      heap.pop();
      EXPECT_EQ(got.time_s, want.time_s);
      EXPECT_EQ(got.event.kind, want.event.kind);
      EXPECT_EQ(got.event.call, want.event.call);
    }
    EXPECT_TRUE(heap.empty());
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 5040);
}

// After an in-group handoff a group's heap holds two End entries of one call
// that agree on (time, kind, call) and differ only in epoch: they pop in
// epoch order whichever was pushed first.
TEST(CommitOrder, EqualKeysPopInEpochOrder) {
  const CommitEntry stale{3.0, ShardEvent{ShardEventKind::End, 6, 1, 2}};
  const CommitEntry live{3.0, ShardEvent{ShardEventKind::End, 6, 2, 2}};
  for (const bool stale_first : {true, false}) {
    Heap heap;
    heap.push(stale_first ? stale : live);
    heap.push(stale_first ? live : stale);
    EXPECT_EQ(heap.top().event.epoch, 1u);
    heap.pop();
    EXPECT_EQ(heap.top().event.epoch, 2u);
  }
}

}  // namespace
}  // namespace facs::sim
