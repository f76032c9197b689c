#include "cellular/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "cellular/call.hpp"

namespace facs::cellular {
namespace {

TEST(HexNetwork, SingleCellPaperSetup) {
  const HexNetwork net{0};
  EXPECT_EQ(net.cellCount(), 1u);
  EXPECT_DOUBLE_EQ(net.cellRadiusKm(), 10.0);
  EXPECT_EQ(net.station(0).capacityBu(), kPaperCellCapacityBu);
  EXPECT_EQ(net.cell(0).center, (Vec2{0.0, 0.0}));
  EXPECT_TRUE(net.neighbors(0).empty());
}

TEST(HexNetwork, Validation) {
  EXPECT_THROW(HexNetwork(-1), std::invalid_argument);
  EXPECT_THROW(HexNetwork(1, 0.0), std::invalid_argument);
  EXPECT_THROW(HexNetwork(1, 10.0, 0), std::invalid_argument);
}

TEST(HexNetwork, OneRingHasSevenCellsWithCorrectAdjacency) {
  const HexNetwork net{1};
  EXPECT_EQ(net.cellCount(), 7u);
  // Centre touches all six others.
  EXPECT_EQ(net.neighbors(0).size(), 6u);
  // Ring cells touch the centre plus two ring siblings (3 in-network).
  for (CellId id = 1; id < 7; ++id) {
    EXPECT_EQ(net.neighbors(id).size(), 3u) << "cell " << id;
  }
}

TEST(HexNetwork, TwoRingAdjacencyCounts) {
  const HexNetwork net{2};
  EXPECT_EQ(net.cellCount(), 19u);
  EXPECT_EQ(net.neighbors(0).size(), 6u);
  // Inner-ring cells now have all 6 neighbours in-network.
  for (CellId id = 1; id < 7; ++id) {
    EXPECT_EQ(net.neighbors(id).size(), 6u) << "cell " << id;
  }
}

TEST(HexNetwork, CellAtFindsCentersAndRejectsOutside) {
  const HexNetwork net{1, 10.0};
  for (const Cell& c : net.cells()) {
    const auto found = net.cellAt(c.center);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, c.id);
  }
  // Far outside the 7-cell disk.
  EXPECT_FALSE(net.cellAt({200.0, 200.0}).has_value());
}

/// The definition cellAt's index must reproduce: round to a hex, then scan
/// every cell for that coordinate.
std::optional<CellId> cellAtByScan(const HexNetwork& net, Vec2 p) {
  const HexCoord h = pointToHex(p, net.cellRadiusKm());
  for (const Cell& c : net.cells()) {
    if (c.coord == h) return c.id;
  }
  return std::nullopt;
}

TEST(HexNetwork, CellAtIndexMatchesScanOverDenseGrid) {
  for (const double radius : {1.0, 10.0}) {
    for (int rings = 0; rings <= 4; ++rings) {
      const HexNetwork net{rings, radius};
      std::vector<Vec2> points;
      // A grid reaching two radii past the disk on every side.
      const double reach = (std::sqrt(3.0) * rings + 2.0) * radius;
      const int steps = 120;
      for (int i = 0; i <= steps; ++i) {
        for (int j = 0; j <= steps; ++j) {
          points.push_back({-reach + 2.0 * reach * i / steps,
                            -reach + 2.0 * reach * j / steps});
        }
      }
      // Cell edges: the midpoint between each pair of neighbouring centres
      // and every corner of every cell.
      for (const Cell& c : net.cells()) {
        for (const CellId n : net.neighbors(c.id)) {
          points.push_back((c.center + net.cell(n).center) * 0.5);
        }
        for (int k = 0; k < 6; ++k) {
          points.push_back(c.center +
                           headingVector(30.0 + 60.0 * k) * radius);
        }
      }
      points.push_back({1e6, -1e6});
      std::size_t inside = 0;
      for (const Vec2 p : points) {
        const auto expected = cellAtByScan(net, p);
        ASSERT_EQ(net.cellAt(p), expected)
            << "rings " << rings << " radius " << radius << " at (" << p.x
            << ", " << p.y << ")";
        if (expected) ++inside;
      }
      // The grid really covers both sides of the disk's rim.
      EXPECT_GT(inside, 0u);
      EXPECT_LT(inside, points.size());
    }
  }
}

TEST(HexNetwork, CellAtRejectsNonFiniteAndFarOutPositions) {
  const HexNetwork net{2, 10.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Vec2 p : {Vec2{nan, 0.0}, Vec2{0.0, nan}, Vec2{inf, 0.0},
                       Vec2{0.0, -inf}, Vec2{1e300, 1e300},
                       Vec2{-1e20, 0.0}, Vec2{0.0, 3e9}}) {
    EXPECT_FALSE(net.cellAt(p).has_value()) << p.x << ", " << p.y;
  }
  EXPECT_EQ(net.cellAt({0.0, 0.0}), std::optional<CellId>{0});
}

TEST(HexNetwork, DistanceToStation) {
  const HexNetwork net{0, 10.0};
  EXPECT_DOUBLE_EQ(net.distanceToStationKm({3.0, 4.0}, 0), 5.0);
}

TEST(HexNetwork, StationLedgersAreIndependent) {
  HexNetwork net{1};
  net.station(0).allocate(1, 10, true);
  net.station(3).allocate(2, 5, false);
  EXPECT_EQ(net.station(0).occupiedBu(), 10);
  EXPECT_EQ(net.station(3).occupiedBu(), 5);
  EXPECT_EQ(net.station(1).occupiedBu(), 0);
  EXPECT_EQ(net.totalOccupiedBu(), 15);
  EXPECT_EQ(net.totalCapacityBu(), 7 * kPaperCellCapacityBu);
}

TEST(HexNetwork, NeighborsAreSymmetric) {
  const HexNetwork net{2};
  for (CellId a = 0; a < net.cellCount(); ++a) {
    for (const CellId b : net.neighbors(a)) {
      const auto& back = net.neighbors(b);
      EXPECT_NE(std::find(back.begin(), back.end(), a), back.end())
          << "edge " << a << " -> " << b << " not symmetric";
    }
  }
}

TEST(CallStateNames, ToString) {
  EXPECT_EQ(toString(CallState::Requested), "requested");
  EXPECT_EQ(toString(CallState::Active), "active");
  EXPECT_EQ(toString(CallState::Completed), "completed");
  EXPECT_EQ(toString(CallState::Blocked), "blocked");
  EXPECT_EQ(toString(CallState::Dropped), "dropped");
}

TEST(CellGroupPartition, ContiguousBalancedAndComplete) {
  const HexNetwork net{2};  // 19 cells
  const CellGroupPartition part{net, 4};
  EXPECT_EQ(part.groups(), 4);
  // Monotone over the spiral ids (contiguous ranges), every group
  // non-empty, sizes within one of each other.
  std::vector<int> size(4, 0);
  int prev = 0;
  for (CellId c = 0; c < net.cellCount(); ++c) {
    const int g = part.groupOf(static_cast<CellId>(c));
    ASSERT_GE(g, prev);
    ASSERT_LT(g, 4);
    prev = g;
    ++size[static_cast<std::size_t>(g)];
  }
  for (const int s : size) EXPECT_GT(s, 0);
  const auto [lo, hi] = std::minmax_element(size.begin(), size.end());
  EXPECT_LE(*hi - *lo, 1);
}

TEST(CellGroupPartition, ClampsToCellCountAndRejectsNonsense) {
  const HexNetwork net{1};  // 7 cells
  EXPECT_EQ(CellGroupPartition(net, 64).groups(), 7);
  EXPECT_EQ(CellGroupPartition(net, 1).groups(), 1);
  EXPECT_THROW(CellGroupPartition(net, 0), std::invalid_argument);
}

}  // namespace
}  // namespace facs::cellular
