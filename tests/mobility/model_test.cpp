#include "mobility/model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace facs::mobility {
namespace {

sim::Rng rng(std::uint64_t seed = 1) { return sim::makeRng(seed); }

TEST(SpeedDependentTurn, SigmaDecaysWithSpeed) {
  const SpeedDependentTurn model;
  const double walking = model.sigmaDeg(4.0);
  const double cycling = model.sigmaDeg(15.0);
  const double driving = model.sigmaDeg(60.0);
  const double highway = model.sigmaDeg(120.0);
  EXPECT_GT(walking, cycling);
  EXPECT_GT(cycling, driving);
  EXPECT_GT(driving, highway);
  // The paper's premise quantified: walkers turn an order of magnitude more.
  EXPECT_GT(walking / driving, 5.0);
  // Negative speeds are clamped.
  EXPECT_DOUBLE_EQ(model.sigmaDeg(-3.0), model.sigmaDeg(0.0));
}

TEST(SpeedDependentTurn, ValidatesParams) {
  SpeedDependentTurnParams bad;
  bad.sigma_max_deg = -1.0;
  EXPECT_THROW(SpeedDependentTurn{bad}, std::invalid_argument);
  bad = {};
  bad.v_ref_kmh = 0.0;
  EXPECT_THROW(SpeedDependentTurn{bad}, std::invalid_argument);
}

TEST(SpeedDependentTurn, RejectsNonPositiveDt) {
  SpeedDependentTurn model;
  MotionState s;
  auto r = rng();
  EXPECT_THROW(model.step(s, 0.0, r), std::invalid_argument);
  EXPECT_THROW(model.step(s, -1.0, r), std::invalid_argument);
}

TEST(SpeedDependentTurn, HeadingDriftScalesWithSpeed) {
  // Empirical check of the premise driving Fig. 7: after the same walk
  // time, slow users' headings have drifted much more than fast users'.
  const auto drift_for = [](double speed) {
    SpeedDependentTurn model;
    double sum_sq = 0.0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
      auto r = rng(static_cast<std::uint64_t>(t) + 7);
      MotionState s;
      s.speed_kmh = speed;
      s.heading_deg = 0.0;
      for (int i = 0; i < 30; ++i) model.step(s, 1.0, r);
      sum_sq += s.heading_deg * s.heading_deg;
    }
    return std::sqrt(sum_sq / trials);
  };
  const double slow_drift = drift_for(4.0);
  const double fast_drift = drift_for(60.0);
  EXPECT_GT(slow_drift, 4.0 * fast_drift);
  EXPECT_LT(fast_drift, 15.0);
}

TEST(SpeedDependentTurn, ZeroSigmaIsStraightLine) {
  SpeedDependentTurnParams p;
  p.sigma_max_deg = 0.0;
  SpeedDependentTurn model{p};
  MotionState s;
  s.speed_kmh = 50.0;
  s.heading_deg = 30.0;
  auto r = rng();
  for (int i = 0; i < 100; ++i) model.step(s, 1.0, r);
  EXPECT_DOUBLE_EQ(s.heading_deg, 30.0);
  EXPECT_DOUBLE_EQ(s.speed_kmh, 50.0);
  // 100 s at 50 km/h along 30 degrees.
  const double km = 100.0 * 50.0 / 3600.0;
  EXPECT_NEAR(s.position_km.x, km * std::sqrt(3.0) / 2.0, 1e-9);
  EXPECT_NEAR(s.position_km.y, km / 2.0, 1e-9);
}

TEST(SpeedDependentTurn, HeadingStaysNormalized) {
  SpeedDependentTurnParams p;
  p.sigma_max_deg = 120.0;  // violent turner
  SpeedDependentTurn model{p};
  MotionState s;
  s.speed_kmh = 0.0;
  auto r = rng(3);
  for (int i = 0; i < 1000; ++i) {
    model.step(s, 1.0, r);
    EXPECT_GT(s.heading_deg, -180.0 - 1e-9);
    EXPECT_LE(s.heading_deg, 180.0 + 1e-9);
  }
}

}  // namespace
}  // namespace facs::mobility
