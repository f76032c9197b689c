#include "fuzzy/defuzzify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

namespace facs::fuzzy {
namespace {

const Interval kUnit{0.0, 1.0};
constexpr std::array<Defuzzifier, 5> kAllDefuzzifiers{
    Defuzzifier::Centroid, Defuzzifier::Bisector, Defuzzifier::MeanOfMax,
    Defuzzifier::SmallestOfMax, Defuzzifier::LargestOfMax};

using Curve = std::vector<Vertex>;

double defuzzify(Defuzzifier method, const Curve& curve) {
  return defuzzifyPiecewise(method, curve);
}

TEST(Defuzzify, CentroidOfSymmetricTriangle) {
  // tri(0.5, 0.25, 0.25) over [0, 1].
  const Curve tri{{0.0, 0.0}, {0.25, 0.0}, {0.5, 1.0}, {0.75, 0.0},
                  {1.0, 0.0}};
  EXPECT_NEAR(defuzzify(Defuzzifier::Centroid, tri), 0.5, 1e-6);
}

TEST(Defuzzify, CentroidOfRightShoulderPullsRight) {
  // trap(0.8, 1, 0.2, 0) over [0, 1].
  const Curve shoulder{{0.0, 0.0}, {0.6, 0.0}, {0.8, 1.0}, {1.0, 1.0}};
  const double c = defuzzify(Defuzzifier::Centroid, shoulder);
  EXPECT_GT(c, 0.8);
  EXPECT_LT(c, 1.0);
}

TEST(Defuzzify, BisectorSplitsAreaInHalf) {
  const Curve tri{{0.0, 0.0}, {0.5, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(defuzzify(Defuzzifier::Bisector, tri), 0.5, 1e-6);
}

TEST(Defuzzify, MaxFamilyOnClippedCurve) {
  // tri(0.5, 0.5, 0.5) clipped at 0.5: a maximizing plateau over
  // [0.25, 0.75].
  const Curve clipped{{0.0, 0.0}, {0.25, 0.5}, {0.75, 0.5}, {1.0, 0.0}};
  EXPECT_NEAR(defuzzify(Defuzzifier::SmallestOfMax, clipped), 0.25, 1e-3);
  EXPECT_NEAR(defuzzify(Defuzzifier::LargestOfMax, clipped), 0.75, 1e-3);
  EXPECT_NEAR(defuzzify(Defuzzifier::MeanOfMax, clipped), 0.5, 1e-3);
}

class EmptyCurveNeutral : public ::testing::TestWithParam<Defuzzifier> {};

TEST_P(EmptyCurveNeutral, ZeroCurveYieldsUniverseMidpoint) {
  // No rule fired: the FACS output universes are built so the midpoint is
  // the neutral decision (A/R = 0).
  const double v = defuzzify(GetParam(), Curve{{-1.0, 0.0}, {1.0, 0.0}});
  EXPECT_NEAR(v, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(All, EmptyCurveNeutral,
                         ::testing::ValuesIn(kAllDefuzzifiers));

class WithinUniverseProperty : public ::testing::TestWithParam<Defuzzifier> {};

TEST_P(WithinUniverseProperty, ResultAlwaysInsideUniverse) {
  // tri(6, 2, 1) over [-3, 7].
  const Curve tri{{-3.0, 0.0}, {4.0, 0.0}, {6.0, 1.0}, {7.0, 0.0}};
  const double v = defuzzify(GetParam(), tri);
  EXPECT_GE(v, -3.0);
  EXPECT_LE(v, 7.0);
}

INSTANTIATE_TEST_SUITE_P(All, WithinUniverseProperty,
                         ::testing::ValuesIn(kAllDefuzzifiers));

TEST(Defuzzify, ToStringNames) {
  EXPECT_EQ(toString(Defuzzifier::Centroid), "centroid");
  EXPECT_EQ(toString(Defuzzifier::Bisector), "bisector");
  EXPECT_EQ(toString(Defuzzifier::MeanOfMax), "mom");
  EXPECT_EQ(toString(Defuzzifier::SmallestOfMax), "som");
  EXPECT_EQ(toString(Defuzzifier::LargestOfMax), "lom");
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
  envelope.add(TNorm::Minimum, a.vertices(), 0.8);
  envelope.add(TNorm::Minimum, b.vertices(), 0.9);
  envelope.add(TNorm::Minimum, c.vertices(), 0.4);
  const double centroid =
      envelope.defuzzify(SNorm::Maximum, Defuzzifier::Centroid, kUnit);
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
  EXPECT_EQ(envelope.defuzzify(SNorm::Maximum, Defuzzifier::Centroid,
                               Interval{-1.0, 1.0}),
            0.0);
  // Reuse after clear(): a term wholly outside the universe adds nothing.
  const Triangular outside{5.0, 1.0, 1.0};
  envelope.add(TNorm::Minimum, outside.vertices(), 1.0);
  for (const SNorm agg :
       {SNorm::Maximum, SNorm::BoundedSum, SNorm::AlgebraicSum}) {
    EXPECT_EQ(envelope.defuzzify(agg, Defuzzifier::MeanOfMax,
                                 Interval{-1.0, 1.0}),
              0.0)
        << toString(agg);
  }
}

TEST(PiecewiseEnvelope, ImplicationKeepsTermsPiecewiseLinear) {
  // Product scales the corners; Lukasiewicz is zero up to mu = 1 - a and
  // bends there. Either way the curve is exact between its corners.
  const Trapezoidal trap{0.3, 0.5, 0.2, 0.4};
  const Triangular tri{0.8, 0.3, 0.3};
  for (const TNorm impl : {TNorm::AlgebraicProduct, TNorm::BoundedDifference}) {
    for (const SNorm agg : {SNorm::Maximum, SNorm::BoundedSum}) {
      PiecewiseEnvelope envelope;
      envelope.add(impl, trap.vertices(), 0.7);
      envelope.add(impl, tri.vertices(), 0.6);
      (void)envelope.defuzzify(agg, Defuzzifier::Centroid, kUnit);
      for (double x = 0.0; x <= 1.0; x += 1.0 / 512.0) {
        const double expected = apply(agg, apply(impl, 0.7, trap.degree(x)),
                                      apply(impl, 0.6, tri.degree(x)));
        EXPECT_NEAR(evaluate(envelope.curve(), x), expected, 1e-12)
            << toString(impl) << "/" << toString(agg) << " x = " << x;
      }
    }
  }
}

TEST(PiecewiseEnvelope, BoundedSumCapsWhereTheSumCrossesOne) {
  // tri(0.4, 0.4, 0.4) and tri(0.6, 0.4, 0.4), both at 0.8: their sum is
  // 0.8 (1 - |x - 0.4| / 0.4) + 0.8 (1 - |x - 0.6| / 0.4) = 1.2 on
  // [0.4, 0.6] and reaches 1 at x = 0.3 and x = 0.7.
  const Triangular a{0.4, 0.4, 0.4};
  const Triangular b{0.6, 0.4, 0.4};
  PiecewiseEnvelope envelope;
  envelope.add(TNorm::Minimum, a.vertices(), 0.8);
  envelope.add(TNorm::Minimum, b.vertices(), 0.8);
  EXPECT_NEAR(
      envelope.defuzzify(SNorm::BoundedSum, Defuzzifier::SmallestOfMax, kUnit),
      0.3, 1e-9);
  EXPECT_NEAR(
      envelope.defuzzify(SNorm::BoundedSum, Defuzzifier::LargestOfMax, kUnit),
      0.7, 1e-9);
  EXPECT_NEAR(
      envelope.defuzzify(SNorm::BoundedSum, Defuzzifier::Centroid, kUnit), 0.5,
      1e-12);
}

/// The probabilistic OR of a (1 - x) and b x on [0, 1], from the ramps
/// tri(0, 0, 1) and tri(1, 1, 0) under product implication: the quadratic
/// mu = a (1 - x) + b x - a b x (1 - x).
PiecewiseEnvelope& rampsUnderProbor(PiecewiseEnvelope& envelope, double a,
                                    double b) {
  const Triangular down{0.0, 0.0, 1.0};
  const Triangular up{1.0, 1.0, 0.0};
  envelope.clear();
  envelope.add(TNorm::AlgebraicProduct, down.vertices(), a);
  envelope.add(TNorm::AlgebraicProduct, up.vertices(), b);
  return envelope;
}

TEST(PiecewiseEnvelope, ProborCentroidAndBisectorAreExact) {
  // Area a / 2 + b / 2 - a b / 6; first moment a / 6 + b / 3 - a b / 12.
  PiecewiseEnvelope envelope;
  const double a = 0.9;
  const double b = 0.35;
  const double area = a / 2.0 + b / 2.0 - a * b / 6.0;
  const double moment = a / 6.0 + b / 3.0 - a * b / 12.0;
  EXPECT_NEAR(rampsUnderProbor(envelope, a, b)
                  .defuzzify(SNorm::AlgebraicSum, Defuzzifier::Centroid, kUnit),
              moment / area, 1e-15);
  // Half the area lies left of the bisector t: the cubic
  // a t - (a - b) t^2 / 2 - a b (t^2 / 2 - t^3 / 3) = area / 2.
  const double t = rampsUnderProbor(envelope, a, b)
                       .defuzzify(SNorm::AlgebraicSum, Defuzzifier::Bisector,
                                  kUnit);
  EXPECT_NEAR(a * t - (a - b) * t * t / 2.0 -
                  a * b * (t * t / 2.0 - t * t * t / 3.0),
              area / 2.0, 1e-14);
}

TEST(PiecewiseEnvelope, ProborDipKeepsBothEndsOfThePiece) {
  // Equal activations: mu = a - a^2 x (1 - x) peaks at both ends and dips
  // between, so the maximizing set is the two points 0 and 1.
  PiecewiseEnvelope envelope;
  rampsUnderProbor(envelope, 0.5, 0.5);
  EXPECT_EQ(envelope.defuzzify(SNorm::AlgebraicSum,
                               Defuzzifier::SmallestOfMax, kUnit),
            0.0);
  EXPECT_EQ(envelope.defuzzify(SNorm::AlgebraicSum, Defuzzifier::LargestOfMax,
                               kUnit),
            1.0);
  EXPECT_EQ(envelope.defuzzify(SNorm::AlgebraicSum, Defuzzifier::MeanOfMax,
                               kUnit),
            0.5);
  // Unequal: only the higher end is maximal. The slope away from it adds
  // no sliver, even where the tolerance spans a long stretch of a shallow
  // slope (activations near 1e-5).
  for (const auto& [a, b] : {std::pair{0.6, 0.5}, std::pair{2.1e-5, 2e-5}}) {
    for (const Defuzzifier d : {Defuzzifier::MeanOfMax,
                                Defuzzifier::SmallestOfMax,
                                Defuzzifier::LargestOfMax}) {
      EXPECT_EQ(rampsUnderProbor(envelope, a, b)
                    .defuzzify(SNorm::AlgebraicSum, d, kUnit),
                0.0)
          << a << " " << toString(d);
    }
  }
}

TEST(PiecewiseEnvelope, FlatProborPieceOutweighsAnApex) {
  // trap(0.2, 0.6) at 0.5 and trap(0.4, 0.8) at 0.4 (sides 0.1) overlap
  // flat on [0.4, 0.6], where the degree-2 piece is 1 - 0.5 * 0.6 = 0.7;
  // tri(1.5, 0.2, 0.2) at 0.7 peaks there too, at a point. Mean of max is
  // the flat piece's midpoint; the apex still bounds the set.
  const Trapezoidal a{0.2, 0.6, 0.1, 0.1};
  const Trapezoidal b{0.4, 0.8, 0.1, 0.1};
  const Triangular c{1.5, 0.2, 0.2};
  const Interval u{0.0, 2.0};
  PiecewiseEnvelope envelope;
  const auto run = [&](Defuzzifier d) {
    envelope.clear();
    envelope.add(TNorm::AlgebraicProduct, a.vertices(), 0.5);
    envelope.add(TNorm::AlgebraicProduct, b.vertices(), 0.4);
    envelope.add(TNorm::AlgebraicProduct, c.vertices(), 0.7);
    return envelope.defuzzify(SNorm::AlgebraicSum, d, u);
  };
  EXPECT_NEAR(run(Defuzzifier::MeanOfMax), 0.5, 1e-15);
  EXPECT_NEAR(run(Defuzzifier::SmallestOfMax), 0.4, 1e-15);
  EXPECT_NEAR(run(Defuzzifier::LargestOfMax), 1.5, 1e-15);
}

TEST(PiecewiseEnvelope, WarmEnvelopeKeepsTheAnswer) {
  // One envelope reused across operators and methods (as an engine's
  // per-thread scratch is) answers as a fresh one does.
  const Triangular a{0.3, 0.3, 0.3};
  const Trapezoidal b{0.5, 0.7, 0.2, 0.1};
  const Triangular c{0.6, 0.5, 0.5};
  PiecewiseEnvelope warm;
  for (const TNorm impl : {TNorm::Minimum, TNorm::AlgebraicProduct,
                           TNorm::BoundedDifference}) {
    for (const SNorm agg :
         {SNorm::AlgebraicSum, SNorm::Maximum, SNorm::BoundedSum}) {
      for (const Defuzzifier d : kAllDefuzzifiers) {
        PiecewiseEnvelope fresh;
        for (PiecewiseEnvelope* e : {&warm, &fresh}) {
          e->clear();
          e->add(impl, a.vertices(), 0.8);
          e->add(impl, b.vertices(), 0.9);
          e->add(impl, c.vertices(), 0.5);
        }
        EXPECT_EQ(warm.defuzzify(agg, d, kUnit), fresh.defuzzify(agg, d, kUnit))
            << toString(impl) << "/" << toString(agg) << "/" << toString(d);
      }
    }
  }
}

}  // namespace
}  // namespace facs::fuzzy
