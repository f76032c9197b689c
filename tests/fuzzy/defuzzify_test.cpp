#include "fuzzy/defuzzify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <vector>

namespace facs::fuzzy {
namespace {

const Interval kUnit{0.0, 1.0};
constexpr std::array<Defuzzifier, 5> kAllDefuzzifiers{
    Defuzzifier::Centroid, Defuzzifier::Bisector, Defuzzifier::MeanOfMax,
    Defuzzifier::SmallestOfMax, Defuzzifier::LargestOfMax};

/// A curve sampled on \p resolution uniform points over \p universe, with
/// its trapezoid weights: what defuzzifySampled() takes.
struct Samples {
  std::vector<double> x;
  std::vector<double> mu;
  std::vector<double> half_dx;
};

template <typename Curve>
Samples sample(Curve curve, Interval universe, int resolution = 1001) {
  Samples s;
  const double step = universe.width() / (resolution - 1);
  for (int i = 0; i < resolution; ++i) {
    s.x.push_back(universe.lo + step * i);
    s.mu.push_back(curve(s.x.back()));
  }
  fillTrapezoidWeights(s.x, s.half_dx);
  return s;
}

double defuzzify(Defuzzifier method, const Samples& s) {
  DefuzzScratch scratch;
  return defuzzifySampled(method, s.x, s.mu, s.half_dx, scratch);
}

TEST(Defuzzify, CentroidOfSymmetricTriangle) {
  const Triangular tri{0.5, 0.25, 0.25};
  const double c = defuzzify(
      Defuzzifier::Centroid,
      sample([&](double x) { return tri.degree(x); }, kUnit));
  EXPECT_NEAR(c, 0.5, 1e-6);
}

TEST(Defuzzify, CentroidOfRightShoulderPullsRight) {
  const Trapezoidal shoulder{0.8, 1.0, 0.2, 0.0};
  const double c = defuzzify(
      Defuzzifier::Centroid,
      sample([&](double x) { return shoulder.degree(x); }, kUnit));
  EXPECT_GT(c, 0.8);
  EXPECT_LT(c, 1.0);
}

TEST(Defuzzify, CentroidOfAsymmetricTriangleAnalytic) {
  // Triangle with vertices (0,0), (0.25,1), (1,0): centroid x = (0+0.25+1)/3.
  const Triangular tri{0.25, 0.25, 0.75};
  const double c = defuzzify(
      Defuzzifier::Centroid,
      sample([&](double x) { return tri.degree(x); }, kUnit, 20001));
  EXPECT_NEAR(c, (0.0 + 0.25 + 1.0) / 3.0, 1e-4);
}

TEST(Defuzzify, BisectorSplitsAreaInHalf) {
  const Triangular tri{0.5, 0.5, 0.5};
  const double b = defuzzify(
      Defuzzifier::Bisector,
      sample([&](double x) { return tri.degree(x); }, kUnit));
  EXPECT_NEAR(b, 0.5, 1e-6);
}

TEST(Defuzzify, BisectorOfUniformCurve) {
  const double b = defuzzify(
      Defuzzifier::Bisector,
      sample([](double) { return 0.7; }, Interval{2.0, 6.0}));
  EXPECT_NEAR(b, 4.0, 1e-6);
}

TEST(Defuzzify, MaxFamilyOnPlateau) {
  const Trapezoidal trap{0.4, 0.6, 0.2, 0.2};
  const Samples s = sample([&](double x) { return trap.degree(x); }, kUnit);
  EXPECT_NEAR(defuzzify(Defuzzifier::MeanOfMax, s), 0.5, 1e-3);
  EXPECT_NEAR(defuzzify(Defuzzifier::SmallestOfMax, s), 0.4, 1e-3);
  EXPECT_NEAR(defuzzify(Defuzzifier::LargestOfMax, s), 0.6, 1e-3);
}

TEST(Defuzzify, MaxFamilyOnClippedCurve) {
  // A triangle clipped at 0.5 has a maximizing plateau over [0.25, 0.75].
  const Triangular tri{0.5, 0.5, 0.5};
  const Samples s = sample(
      [&](double x) { return std::min(tri.degree(x), 0.5); }, kUnit);
  EXPECT_NEAR(defuzzify(Defuzzifier::SmallestOfMax, s), 0.25, 1e-3);
  EXPECT_NEAR(defuzzify(Defuzzifier::LargestOfMax, s), 0.75, 1e-3);
  EXPECT_NEAR(defuzzify(Defuzzifier::MeanOfMax, s), 0.5, 1e-3);
}

class EmptyCurveNeutral : public ::testing::TestWithParam<Defuzzifier> {};

TEST_P(EmptyCurveNeutral, ZeroCurveYieldsUniverseMidpoint) {
  // No rule fired: the FACS output universes are built so the midpoint is
  // the neutral decision (A/R = 0).
  const double v = defuzzify(
      GetParam(), sample([](double) { return 0.0; }, Interval{-1.0, 1.0}));
  EXPECT_NEAR(v, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(All, EmptyCurveNeutral,
                         ::testing::ValuesIn(kAllDefuzzifiers));

class WithinUniverseProperty : public ::testing::TestWithParam<Defuzzifier> {};

TEST_P(WithinUniverseProperty, ResultAlwaysInsideUniverse) {
  const Interval u{-3.0, 7.0};
  const Triangular tri{6.0, 2.0, 1.0};
  const double v =
      defuzzify(GetParam(), sample([&](double x) { return tri.degree(x); }, u));
  EXPECT_GE(v, u.lo);
  EXPECT_LE(v, u.hi);
}

INSTANTIATE_TEST_SUITE_P(All, WithinUniverseProperty,
                         ::testing::ValuesIn(kAllDefuzzifiers));

TEST(Defuzzify, RejectsBadArguments) {
  const Samples one = sample([](double) { return 1.0; }, kUnit, 2);
  DefuzzScratch scratch;
  const std::vector<double> x1{0.0};
  const std::vector<double> mu1{1.0};
  EXPECT_THROW(
      (void)defuzzifySampled(Defuzzifier::Centroid, x1, mu1, {}, scratch),
      std::invalid_argument);
  EXPECT_THROW((void)defuzzifySampled(Defuzzifier::Centroid, one.x, mu1,
                                      one.half_dx, scratch),
               std::invalid_argument);
  EXPECT_THROW((void)defuzzifySampled(Defuzzifier::Centroid, one.x, one.mu,
                                      {}, scratch),
               std::invalid_argument);
}

TEST(Defuzzify, ToStringNames) {
  EXPECT_EQ(toString(Defuzzifier::Centroid), "centroid");
  EXPECT_EQ(toString(Defuzzifier::Bisector), "bisector");
  EXPECT_EQ(toString(Defuzzifier::MeanOfMax), "mom");
  EXPECT_EQ(toString(Defuzzifier::SmallestOfMax), "som");
  EXPECT_EQ(toString(Defuzzifier::LargestOfMax), "lom");
}

TEST(Defuzzify, WarmScratchKeepsTheAnswer) {
  // One scratch reused across resolutions and methods (as an engine's
  // per-thread scratch is) answers as a fresh one does.
  const Triangular tri{6.0, 2.0, 1.0};
  DefuzzScratch warm;
  for (int resolution : {2, 11, 1001, 101}) {
    const Samples s = sample([&](double x) { return tri.degree(x); },
                             Interval{-3.0, 7.0}, resolution);
    for (const Defuzzifier d : kAllDefuzzifiers) {
      EXPECT_EQ(defuzzifySampled(d, s.x, s.mu, s.half_dx, warm),
                defuzzify(d, s))
          << toString(d) << " at resolution " << resolution;
    }
  }
}

// ---------------------------------------------------------------------------
// Closed-form defuzzification of piecewise-linear curves.
// ---------------------------------------------------------------------------

TEST(PiecewiseDefuzzify, CentroidOfAsymmetricTriangleIsExact) {
  const std::vector<Vertex> tri{{0.0, 0.0}, {0.25, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(defuzzifyPiecewise(Defuzzifier::Centroid, tri),
              (0.0 + 0.25 + 1.0) / 3.0, 1e-15);
}

TEST(PiecewiseDefuzzify, BisectorSolvesTheQuadratic) {
  // A ramp over [0, 1]: the area left of b is b^2 / 2, half of 1/2 at
  // b = sqrt(1/2).
  const std::vector<Vertex> ramp{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_NEAR(defuzzifyPiecewise(Defuzzifier::Bisector, ramp),
              std::sqrt(0.5), 1e-15);
  const std::vector<Vertex> flat{{2.0, 0.7}, {6.0, 0.7}};
  EXPECT_NEAR(defuzzifyPiecewise(Defuzzifier::Bisector, flat), 4.0, 1e-15);
}

TEST(PiecewiseDefuzzify, MaxFamilyOnPlateau) {
  const std::vector<Vertex> trap{
      {0.0, 0.0}, {0.2, 0.0}, {0.4, 1.0}, {0.6, 1.0}, {0.8, 0.0}, {1.0, 0.0}};
  EXPECT_NEAR(defuzzifyPiecewise(Defuzzifier::MeanOfMax, trap), 0.5, 1e-9);
  EXPECT_NEAR(defuzzifyPiecewise(Defuzzifier::SmallestOfMax, trap), 0.4,
              1e-9);
  EXPECT_NEAR(defuzzifyPiecewise(Defuzzifier::LargestOfMax, trap), 0.6, 1e-9);
}

TEST(PiecewiseDefuzzify, VerticalEdgeHasNoAreaButBoundsTheMax) {
  // A step from 0 to 1 at x = 0.5.
  const std::vector<Vertex> step{
      {0.0, 0.0}, {0.5, 0.0}, {0.5, 1.0}, {1.0, 1.0}};
  EXPECT_NEAR(defuzzifyPiecewise(Defuzzifier::Centroid, step), 0.75, 1e-15);
  EXPECT_NEAR(defuzzifyPiecewise(Defuzzifier::Bisector, step), 0.75, 1e-15);
  EXPECT_EQ(defuzzifyPiecewise(Defuzzifier::SmallestOfMax, step), 0.5);
  EXPECT_EQ(defuzzifyPiecewise(Defuzzifier::LargestOfMax, step), 1.0);
}

TEST(PiecewiseDefuzzify, EmptyCurveYieldsUniverseMidpoint) {
  const std::vector<Vertex> zero{{2.0, 0.0}, {6.0, 0.0}};
  for (Defuzzifier d :
       {Defuzzifier::Centroid, Defuzzifier::Bisector, Defuzzifier::MeanOfMax,
        Defuzzifier::SmallestOfMax, Defuzzifier::LargestOfMax}) {
    EXPECT_EQ(defuzzifyPiecewise(d, zero), 4.0) << toString(d);
  }
}

TEST(PiecewiseDefuzzify, RejectsBadCurves) {
  const std::vector<Vertex> one{{0.0, 1.0}};
  const std::vector<Vertex> backwards{{1.0, 0.0}, {0.0, 0.0}};
  EXPECT_THROW((void)defuzzifyPiecewise(Defuzzifier::Centroid, one),
               std::invalid_argument);
  EXPECT_THROW((void)defuzzifyPiecewise(Defuzzifier::Centroid, backwards),
               std::invalid_argument);
}

/// mu of a corner list at \p x (right-continuous at vertical edges).
double evaluate(std::span<const Vertex> c, double x) {
  for (std::size_t i = c.size() - 1; i > 0; --i) {
    if (c[i - 1].x <= x && x <= c[i].x && c[i - 1].x < c[i].x) {
      return c[i - 1].mu +
             (c[i].mu - c[i - 1].mu) * (x - c[i - 1].x) / (c[i].x - c[i - 1].x);
    }
  }
  return 0.0;
}

TEST(PiecewiseEnvelope, ClipsCrossesAndRestrictsToTheUniverse) {
  // tri(0.3, 0.3, 0.3) at 0.8 and tri(0.6, 0.3, 0.3) at 0.9 cross on their
  // slopes at (0.45, 0.5); tri(1.1, 0.3, 0.3) at 0.4 runs past the
  // universe's right end, which it reaches clipped flat at 0.4.
  const Triangular a{0.3, 0.3, 0.3};
  const Triangular b{0.6, 0.3, 0.3};
  const Triangular c{1.1, 0.3, 0.3};
  PiecewiseEnvelope envelope;
  envelope.addClipped(a.vertices(), 0.8);
  envelope.addClipped(b.vertices(), 0.9);
  envelope.addClipped(c.vertices(), 0.4);
  const double centroid = envelope.defuzzify(Defuzzifier::Centroid, kUnit);
  const std::span<const Vertex> curve = envelope.curve();
  ASSERT_GE(curve.size(), 2u);
  EXPECT_EQ(curve.front().x, 0.0);
  EXPECT_EQ(curve.back().x, 1.0);
  EXPECT_NEAR(curve.back().mu, 0.4, 1e-15);  // c clipped, past x = 0.9
  EXPECT_TRUE(std::any_of(curve.begin(), curve.end(), [](const Vertex& v) {
    return std::abs(v.x - 0.45) < 1e-12 && std::abs(v.mu - 0.5) < 1e-12;
  })) << "crossing corner";
  for (double x = 0.0; x <= 1.0; x += 1.0 / 256.0) {
    const double expected =
        std::max({std::min(0.8, a.degree(x)), std::min(0.9, b.degree(x)),
                  std::min(0.4, c.degree(x))});
    EXPECT_NEAR(evaluate(curve, x), expected, 1e-12) << "x = " << x;
  }
  EXPECT_EQ(centroid, defuzzifyPiecewise(Defuzzifier::Centroid, curve));
}

TEST(PiecewiseEnvelope, NoActiveTermGivesTheMidpoint) {
  PiecewiseEnvelope envelope;
  EXPECT_EQ(envelope.defuzzify(Defuzzifier::Centroid, Interval{-1.0, 1.0}),
            0.0);
  // Reuse after clear(): a term wholly outside the universe adds nothing.
  const Triangular outside{5.0, 1.0, 1.0};
  envelope.addClipped(outside.vertices(), 1.0);
  EXPECT_EQ(envelope.defuzzify(Defuzzifier::MeanOfMax, Interval{-1.0, 1.0}),
            0.0);
}

}  // namespace
}  // namespace facs::fuzzy
