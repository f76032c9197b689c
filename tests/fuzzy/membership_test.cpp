#include "fuzzy/membership.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <span>

namespace facs::fuzzy {
namespace {

TEST(Interval, WidthContainsClamp) {
  const Interval u{-2.0, 3.0};
  EXPECT_DOUBLE_EQ(u.width(), 5.0);
  EXPECT_TRUE(u.contains(-2.0));
  EXPECT_TRUE(u.contains(3.0));
  EXPECT_TRUE(u.contains(0.0));
  EXPECT_FALSE(u.contains(-2.0001));
  EXPECT_FALSE(u.contains(3.0001));
  EXPECT_DOUBLE_EQ(u.clamp(-10.0), -2.0);
  EXPECT_DOUBLE_EQ(u.clamp(10.0), 3.0);
  EXPECT_DOUBLE_EQ(u.clamp(1.5), 1.5);
}

TEST(Triangular, PaperFormulaValues) {
  // f(x; x0=30, a0=15, a1=30) — the paper's "Middle speed" shape.
  const Triangular tri{30.0, 15.0, 30.0};
  EXPECT_DOUBLE_EQ(tri.degree(30.0), 1.0);            // apex
  EXPECT_DOUBLE_EQ(tri.degree(22.5), 0.5);            // halfway up the left
  EXPECT_DOUBLE_EQ(tri.degree(45.0), 0.5);            // halfway down the right
  EXPECT_DOUBLE_EQ(tri.degree(15.0), 0.0);            // left zero-crossing
  EXPECT_DOUBLE_EQ(tri.degree(60.0), 0.0);            // right zero-crossing
  EXPECT_DOUBLE_EQ(tri.degree(14.0), 0.0);            // outside left
  EXPECT_DOUBLE_EQ(tri.degree(61.0), 0.0);            // outside right
}

TEST(Triangular, AsymmetricSlopes) {
  const Triangular tri{0.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(tri.degree(-0.5), 0.5);
  EXPECT_DOUBLE_EQ(tri.degree(2.0), 0.5);
  EXPECT_DOUBLE_EQ(tri.degree(3.0), 0.25);
}

TEST(Triangular, ZeroLeftWidthIsCrispShoulder) {
  // Used for terms anchored at a universe edge, e.g. Near distance at 0 km.
  const Triangular tri{0.0, 0.0, 10.0};
  EXPECT_DOUBLE_EQ(tri.degree(0.0), 1.0);
  EXPECT_DOUBLE_EQ(tri.degree(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(tri.degree(5.0), 0.5);
  EXPECT_DOUBLE_EQ(tri.degree(10.0), 0.0);
}

TEST(Triangular, ZeroRightWidthIsCrispShoulder) {
  const Triangular tri{10.0, 10.0, 0.0};
  EXPECT_DOUBLE_EQ(tri.degree(10.0), 1.0);
  EXPECT_DOUBLE_EQ(tri.degree(10.1), 0.0);
  EXPECT_DOUBLE_EQ(tri.degree(5.0), 0.5);
}

TEST(Triangular, SupportAndPeak) {
  const Triangular tri{30.0, 15.0, 30.0};
  EXPECT_EQ(tri.support(), (Interval{15.0, 60.0}));
  EXPECT_DOUBLE_EQ(tri.peak(), 30.0);
}

TEST(Triangular, RejectsInvalidParameters) {
  EXPECT_THROW(Triangular(0.0, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Triangular(0.0, 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(Triangular(0.0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Triangular(std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(Triangular(0.0, std::numeric_limits<double>::infinity(), 1.0),
               std::invalid_argument);
}

TEST(Triangular, RejectsSupportEndsThatOverflow) {
  // Each parameter is finite, but center +- width is not.
  EXPECT_THROW(Triangular(1e308, 1e308, 1e308), std::invalid_argument);
  EXPECT_THROW(Triangular(-1e308, 1e308, 0.0), std::invalid_argument);
  EXPECT_NO_THROW(Triangular(0.0, 1e308, 1e308));
}

TEST(Trapezoidal, PaperFormulaValues) {
  // g(x; x0=0, x1=15, a0=0, a1=15) — the paper's "Slow speed" shape.
  const Trapezoidal trap{0.0, 15.0, 0.0, 15.0};
  EXPECT_DOUBLE_EQ(trap.degree(0.0), 1.0);
  EXPECT_DOUBLE_EQ(trap.degree(15.0), 1.0);   // plateau
  EXPECT_DOUBLE_EQ(trap.degree(7.0), 1.0);    // inside plateau
  EXPECT_DOUBLE_EQ(trap.degree(22.5), 0.5);   // halfway down
  EXPECT_DOUBLE_EQ(trap.degree(30.0), 0.0);   // zero-crossing
  EXPECT_DOUBLE_EQ(trap.degree(-0.1), 0.0);   // crisp left edge
}

TEST(Trapezoidal, BothSlopes) {
  const Trapezoidal trap{-1.0, 1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(trap.degree(-2.0), 0.5);
  EXPECT_DOUBLE_EQ(trap.degree(2.0), 0.5);
  EXPECT_DOUBLE_EQ(trap.degree(-3.0), 0.0);
  EXPECT_DOUBLE_EQ(trap.degree(3.0), 0.0);
  EXPECT_DOUBLE_EQ(trap.degree(0.0), 1.0);
}

TEST(Trapezoidal, DegeneratePlateauBehavesLikeTriangle) {
  const Trapezoidal trap{5.0, 5.0, 2.0, 2.0};
  const Triangular tri{5.0, 2.0, 2.0};
  for (double x = 2.0; x <= 8.0; x += 0.25) {
    EXPECT_DOUBLE_EQ(trap.degree(x), tri.degree(x)) << "x=" << x;
  }
}

TEST(Trapezoidal, SupportAndPeak) {
  const Trapezoidal trap{-1.0, 1.0, 2.0, 3.0};
  EXPECT_EQ(trap.support(), (Interval{-3.0, 4.0}));
  EXPECT_DOUBLE_EQ(trap.peak(), 0.0);  // plateau midpoint
}

TEST(Trapezoidal, RejectsInvalidParameters) {
  EXPECT_THROW(Trapezoidal(1.0, 0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Trapezoidal(0.0, 1.0, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Trapezoidal(0.0, 1.0, 1.0, -1.0), std::invalid_argument);
}

TEST(Trapezoidal, RejectsSupportEndsThatOverflow) {
  EXPECT_THROW(Trapezoidal(0.0, 1e308, 0.0, 1e308), std::invalid_argument);
  EXPECT_THROW(Trapezoidal(-1e308, 0.0, 1e308, 0.0), std::invalid_argument);
  EXPECT_NO_THROW(Trapezoidal(-1e308, 1e308, 0.0, 0.0));
}

/// Linear interpolation of \p v at \p x, right-continuous at vertical
/// edges and zero outside the corners.
double interpolate(std::span<const Vertex> v, double x) {
  double mu = 0.0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1].x < v[i].x && v[i - 1].x <= x && x <= v[i].x) {
      mu = std::max(mu, v[i - 1].mu + (v[i].mu - v[i - 1].mu) *
                                          (x - v[i - 1].x) /
                                          (v[i].x - v[i - 1].x));
    }
  }
  return mu;
}

TEST(MembershipFunction, VerticesTraceTheDegreeCurve) {
  const Triangular tri{0.3, 0.2, 0.5};
  const Triangular left_edge{0.3, 0.0, 0.5};
  const Trapezoidal trap{-1.0, 1.0, 0.5, 2.0};
  const Trapezoidal shoulder{0.0, 2.0, 0.0, 1.0};
  for (const MembershipFunction* mf :
       std::initializer_list<const MembershipFunction*>{&tri, &left_edge, &trap,
                                                        &shoulder}) {
    const std::span<const Vertex> v = mf->vertices();
    ASSERT_FALSE(v.empty()) << mf->describe();
    EXPECT_EQ(v.front().x, mf->support().lo) << mf->describe();
    EXPECT_EQ(v.back().x, mf->support().hi) << mf->describe();
    for (double x = -2.0; x <= 4.0; x += 1.0 / 64.0) {
      EXPECT_NEAR(interpolate(v, x), mf->degree(x), 1e-12)
          << mf->describe() << " at " << x;
    }
  }
  // A zero-width side is a vertical edge: two corners at the same x.
  EXPECT_EQ(left_edge.vertices()[0].x, left_edge.vertices()[1].x);
}

TEST(MembershipFunction, CloneIsIndependentAndEqual) {
  const Triangular tri{30.0, 15.0, 30.0};
  const auto clone = tri.clone();
  for (double x = 0.0; x <= 70.0; x += 1.0) {
    EXPECT_DOUBLE_EQ(clone->degree(x), tri.degree(x));
  }
  EXPECT_EQ(clone->describe(), tri.describe());
}

TEST(MembershipFunction, DescribeMentionsShapeAndParams) {
  EXPECT_EQ(Triangular(30.0, 15.0, 30.0).describe(), "tri(30, 15, 30)");
  EXPECT_EQ(Trapezoidal(0.0, 15.0, 0.0, 15.0).describe(), "trap(0, 15, 0, 15)");
}

/// Property sweep: every shape stays within [0, 1] and vanishes outside its
/// support, for a grid of parameterisations.
class MembershipRangeProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(MembershipRangeProperty, DegreeStaysInUnitInterval) {
  const auto [center, left, right] = GetParam();
  const Triangular tri{center, left, right};
  const Interval s = tri.support();
  for (int i = -50; i <= 50; ++i) {
    const double x = center + i * (left + right) / 25.0;
    const double d = tri.degree(x);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
    if (x < s.lo || x > s.hi) {
      EXPECT_DOUBLE_EQ(d, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MembershipRangeProperty,
    ::testing::Values(std::make_tuple(0.0, 1.0, 1.0),
                      std::make_tuple(-45.0, 45.0, 45.0),
                      std::make_tuple(30.0, 15.0, 30.0),
                      std::make_tuple(0.5, 0.125, 0.125),
                      std::make_tuple(100.0, 0.0, 20.0),
                      std::make_tuple(-1.0, 7.0, 0.0)));

}  // namespace
}  // namespace facs::fuzzy
