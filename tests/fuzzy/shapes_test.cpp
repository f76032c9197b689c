#include "fuzzy/shapes.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fuzzy/variable.hpp"

namespace facs::fuzzy {
namespace {

TEST(SmoothShapes, ReportNoVertices) {
  // The engine samples smooth output terms instead of integrating them.
  EXPECT_TRUE(Gaussian(5.0, 2.0).vertices().empty());
  EXPECT_TRUE(GeneralizedBell(0.0, 1.0, 2.0).vertices().empty());
  EXPECT_TRUE(Sigmoid(0.0, 3.0).vertices().empty());
}

TEST(GaussianShape, PeakAndSpread) {
  const Gaussian g{5.0, 2.0};
  EXPECT_DOUBLE_EQ(g.degree(5.0), 1.0);
  EXPECT_NEAR(g.degree(7.0), std::exp(-0.5), 1e-12);   // one sigma
  EXPECT_NEAR(g.degree(1.0), std::exp(-2.0), 1e-12);   // two sigma
  EXPECT_DOUBLE_EQ(g.degree(3.0), g.degree(7.0));      // symmetric
  EXPECT_DOUBLE_EQ(g.peak(), 5.0);
  EXPECT_EQ(g.support(), (Interval{-3.0, 13.0}));      // +/- 4 sigma
  EXPECT_EQ(g.describe(), "gauss(5, 2)");
}

TEST(GaussianShape, Validation) {
  EXPECT_THROW(Gaussian(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Gaussian(0.0, -1.0), std::invalid_argument);
}

TEST(BellShape, PeakCrossoverAndSlope) {
  const GeneralizedBell b{0.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(b.degree(0.0), 1.0);
  // At |x - c| = width the degree is exactly 0.5 for any slope.
  EXPECT_NEAR(b.degree(2.0), 0.5, 1e-12);
  EXPECT_NEAR(b.degree(-2.0), 0.5, 1e-12);
  // Steeper slope -> flatter top, sharper shoulders.
  const GeneralizedBell steep{0.0, 2.0, 8.0};
  EXPECT_GT(steep.degree(1.5), b.degree(1.5));
  EXPECT_LT(steep.degree(3.0), b.degree(3.0));
  EXPECT_EQ(b.describe(), "bell(0, 2, 3)");
}

TEST(BellShape, Validation) {
  EXPECT_THROW(GeneralizedBell(0.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(GeneralizedBell(0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(GeneralizedBell(0.0, 1.0, -2.0), std::invalid_argument);
}

TEST(SigmoidShape, RisingAndFalling) {
  const Sigmoid rise{5.0, 2.0};
  EXPECT_NEAR(rise.degree(5.0), 0.5, 1e-12);
  EXPECT_GT(rise.degree(8.0), 0.99);
  EXPECT_LT(rise.degree(2.0), 0.01);

  const Sigmoid fall{5.0, -2.0};
  EXPECT_NEAR(fall.degree(5.0), 0.5, 1e-12);
  EXPECT_LT(fall.degree(8.0), 0.01);
  EXPECT_GT(fall.degree(2.0), 0.99);

  EXPECT_GT(rise.peak(), 5.0);
  EXPECT_LT(fall.peak(), 5.0);
  EXPECT_EQ(rise.describe(), "sigmoid(5, 2)");
}

TEST(SigmoidShape, Validation) {
  EXPECT_THROW(Sigmoid(0.0, 0.0), std::invalid_argument);
}

/// All smooth shapes obey the same contract as the paper shapes: degrees in
/// [0, 1] and (numerically) vanishing outside the reported support.
class SmoothShapeContract
    : public ::testing::TestWithParam<const MembershipFunction*> {};

TEST(SmoothShapes, ContractHolds) {
  const Gaussian g{2.0, 1.5};
  const GeneralizedBell b{-1.0, 3.0, 2.0};
  const Sigmoid s{0.0, 1.0};
  const MembershipFunction* shapes[] = {&g, &b, &s};
  for (const MembershipFunction* mf : shapes) {
    for (double x = -25.0; x <= 25.0; x += 0.25) {
      const double d = mf->degree(x);
      EXPECT_GE(d, 0.0) << mf->describe() << " x=" << x;
      EXPECT_LE(d, 1.0) << mf->describe() << " x=" << x;
    }
    const auto clone = mf->clone();
    EXPECT_DOUBLE_EQ(clone->degree(0.5), mf->degree(0.5));
  }
}

TEST(SmoothShapes, UsableInsideAMamdaniVariable) {
  LinguisticVariable v{"x", Interval{0.0, 10.0}};
  v.addTerm("low", makeSigmoid(3.0, -2.0));
  v.addTerm("mid", makeGaussian(5.0, 1.5));
  v.addTerm("high", makeSigmoid(7.0, 2.0));
  EXPECT_TRUE(v.covers(0.01));
  EXPECT_EQ(v.winningTerm(5.0), 1u);
  EXPECT_EQ(v.winningTerm(0.5), 0u);
  EXPECT_EQ(v.winningTerm(9.5), 2u);
}

}  // namespace
}  // namespace facs::fuzzy
