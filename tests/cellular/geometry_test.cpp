#include "cellular/geometry.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace facs::cellular {
namespace {

TEST(Angles, NormalizeIntoHalfOpenRange) {
  EXPECT_DOUBLE_EQ(normalizeAngleDeg(0.0), 0.0);
  EXPECT_DOUBLE_EQ(normalizeAngleDeg(180.0), 180.0);
  EXPECT_DOUBLE_EQ(normalizeAngleDeg(-180.0), 180.0);
  EXPECT_DOUBLE_EQ(normalizeAngleDeg(190.0), -170.0);
  EXPECT_DOUBLE_EQ(normalizeAngleDeg(-190.0), 170.0);
  EXPECT_DOUBLE_EQ(normalizeAngleDeg(360.0), 0.0);
  EXPECT_DOUBLE_EQ(normalizeAngleDeg(720.0 + 45.0), 45.0);
  EXPECT_DOUBLE_EQ(normalizeAngleDeg(-3600.0 - 90.0), -90.0);
}

/// The remainder is fmod's, exactly, folded into (-180, 180], for every
/// finite angle: configured angles are only required to be finite.
TEST(Angles, NormalizeMatchesFmodExactlyAtAnyMagnitude) {
  const auto folded = [](double deg) {
    double a = std::fmod(deg, 360.0);
    if (a <= -180.0) a += 360.0;
    if (a > 180.0) a -= 360.0;
    return a;
  };
  for (const double deg :
       {540.0, -540.0, 181.25, -179.75, 1e6 + 0.1, -123456.789, 0x1p51 + 0.5,
        0x1p52, -0x1p52 - 2.0, 0x1p53 + 2.0, 1e17, -3e20, 1e300, -1.7e308}) {
    EXPECT_EQ(normalizeAngleDeg(deg), folded(deg)) << deg;
  }
  EXPECT_TRUE(std::isnan(normalizeAngleDeg(INFINITY)));
  EXPECT_TRUE(std::isnan(normalizeAngleDeg(NAN)));
}

TEST(Angles, DegreesRadiansRoundTrip) {
  for (double d = -180.0; d <= 180.0; d += 15.0) {
    EXPECT_NEAR(radToDeg(degToRad(d)), d, 1e-12);
  }
}

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{-3.0, 4.0};
  EXPECT_EQ(a + b, (Vec2{-2.0, 6.0}));
  EXPECT_EQ(a - b, (Vec2{4.0, -2.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(b.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.distanceTo(a), 0.0);
  EXPECT_DOUBLE_EQ((Vec2{0.0, 0.0}).distanceTo(Vec2{3.0, 4.0}), 5.0);
}

TEST(Headings, UnitVectors) {
  EXPECT_NEAR(headingVector(0.0).x, 1.0, 1e-12);
  EXPECT_NEAR(headingVector(0.0).y, 0.0, 1e-12);
  EXPECT_NEAR(headingVector(90.0).x, 0.0, 1e-12);
  EXPECT_NEAR(headingVector(90.0).y, 1.0, 1e-12);
  EXPECT_NEAR(headingVector(180.0).x, -1.0, 1e-12);
  EXPECT_NEAR(headingVector(-90.0).y, -1.0, 1e-12);
}

TEST(Headings, BearingBetweenPoints) {
  EXPECT_DOUBLE_EQ(bearingDeg({0.0, 0.0}, {1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(bearingDeg({0.0, 0.0}, {0.0, 1.0}), 90.0);
  EXPECT_DOUBLE_EQ(bearingDeg({0.0, 0.0}, {-1.0, 0.0}), 180.0);
  EXPECT_DOUBLE_EQ(bearingDeg({0.0, 0.0}, {0.0, -1.0}), -90.0);
  EXPECT_DOUBLE_EQ(bearingDeg({1.0, 1.0}, {2.0, 2.0}), 45.0);
  // Degenerate: identical points default to 0.
  EXPECT_DOUBLE_EQ(bearingDeg({1.0, 1.0}, {1.0, 1.0}), 0.0);
}

TEST(Headings, DeviationIsZeroWhenHeadingAtTarget) {
  // User south-west of the BS heading north-east, straight at it.
  const Vec2 user{-1.0, -1.0};
  const Vec2 bs{0.0, 0.0};
  EXPECT_NEAR(headingDeviationDeg(45.0, user, bs), 0.0, 1e-12);
  // Moving directly away.
  EXPECT_NEAR(std::abs(headingDeviationDeg(-135.0, user, bs)), 180.0, 1e-12);
  // Perpendicular.
  EXPECT_NEAR(headingDeviationDeg(135.0, user, bs), 90.0, 1e-12);
  EXPECT_NEAR(headingDeviationDeg(-45.0, user, bs), -90.0, 1e-12);
}

TEST(Hex, SCoordinateAndDistance) {
  EXPECT_EQ(hexS({0, 0}), 0);
  EXPECT_EQ(hexS({2, -1}), -1);
  EXPECT_EQ(hexDistance({0, 0}, {0, 0}), 0);
  EXPECT_EQ(hexDistance({0, 0}, {1, 0}), 1);
  EXPECT_EQ(hexDistance({0, 0}, {2, -1}), 2);
  EXPECT_EQ(hexDistance({-2, 1}, {2, -1}), 4);
}

TEST(Hex, NeighborsAreAtDistanceOne) {
  const HexCoord h{3, -2};
  const auto ns = hexNeighbors(h);
  ASSERT_EQ(ns.size(), 6u);
  for (const HexCoord& n : ns) {
    EXPECT_EQ(hexDistance(h, n), 1);
  }
}

TEST(Hex, CenterAndInverseRoundTrip) {
  const double radius = 10.0;
  for (int q = -3; q <= 3; ++q) {
    for (int r = -3; r <= 3; ++r) {
      const HexCoord h{q, r};
      EXPECT_EQ(pointToHex(hexCenter(h, radius), radius), h)
          << "q=" << q << " r=" << r;
    }
  }
}

TEST(Hex, PointToHexAssignsNearbyPoints) {
  const double radius = 10.0;
  const Vec2 center = hexCenter({1, -1}, radius);
  // Points well inside the hex (inradius ~8.66 km) stay in it.
  EXPECT_EQ(pointToHex(center + Vec2{4.0, 0.0}, radius), (HexCoord{1, -1}));
  EXPECT_EQ(pointToHex(center + Vec2{0.0, 4.0}, radius), (HexCoord{1, -1}));
}

TEST(Hex, RoundHalfAwayMatchesStdRound) {
  // pointToHex rounds with roundHalfAway instead of libm; it must agree
  // with std::round on every tie, on the largest double below one half,
  // and on the neighbours of each half-integer out past the axial range
  // cellAt lets through (2 * rings + 2 radii; a large disk here).
  const auto check = [](double x) {
    EXPECT_EQ(roundHalfAway(x), std::round(x)) << std::hexfloat << x;
  };
  for (const double x : {0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994,
                         -0.49999999999999994, 0.0, -0.0, 1e-300, -1e-300,
                         4503599627370495.5, -4503599627370495.5,
                         4503599627370497.0, 9007199254740993.0}) {
    check(x);
  }
  const double extent = 4.0 * (2.0 * 1000 + 2.0);
  for (double half = -extent; half <= extent; half += 0.5) {
    check(half);
    check(std::nextafter(half, -INFINITY));
    check(std::nextafter(half, INFINITY));
  }
}

TEST(Hex, DiskSizes) {
  EXPECT_EQ(hexDisk(-1).size(), 0u);
  EXPECT_EQ(hexDisk(0).size(), 1u);
  EXPECT_EQ(hexDisk(1).size(), 7u);
  EXPECT_EQ(hexDisk(2).size(), 19u);
  EXPECT_EQ(hexDisk(3).size(), 37u);  // 1 + 3n(n+1)
}

TEST(Hex, DiskRingsOrderedAndUnique) {
  const auto disk = hexDisk(2);
  EXPECT_EQ(disk[0], (HexCoord{0, 0}));
  for (std::size_t i = 1; i <= 6; ++i) {
    EXPECT_EQ(hexDistance({0, 0}, disk[i]), 1) << "i=" << i;
  }
  for (std::size_t i = 7; i < disk.size(); ++i) {
    EXPECT_EQ(hexDistance({0, 0}, disk[i]), 2) << "i=" << i;
  }
  for (std::size_t i = 0; i < disk.size(); ++i) {
    for (std::size_t j = i + 1; j < disk.size(); ++j) {
      EXPECT_FALSE(disk[i] == disk[j]) << "duplicate at " << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace facs::cellular
