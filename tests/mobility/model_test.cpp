#include "mobility/model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace facs::mobility {
namespace {

using cellular::Vec2;

sim::Rng rng(std::uint64_t seed = 1) { return sim::makeRng(seed); }

TEST(ConstantVelocity, MovesAlongHeading) {
  ConstantVelocity model;
  MotionState s;
  s.speed_kmh = 36.0;  // 10 m/s
  s.heading_deg = 90.0;
  auto r = rng();
  model.step(s, 100.0, r);  // 100 s -> 1 km north
  EXPECT_NEAR(s.position_km.x, 0.0, 1e-9);
  EXPECT_NEAR(s.position_km.y, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.heading_deg, 90.0);
  EXPECT_DOUBLE_EQ(s.speed_kmh, 36.0);
}

TEST(ConstantVelocity, RejectsNonPositiveDt) {
  ConstantVelocity model;
  MotionState s;
  auto r = rng();
  EXPECT_THROW(model.step(s, 0.0, r), std::invalid_argument);
  EXPECT_THROW(model.step(s, -1.0, r), std::invalid_argument);
}

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

TEST(GaussMarkov, ValidatesParams) {
  GaussMarkovParams bad;
  bad.alpha = 1.5;
  EXPECT_THROW(GaussMarkov{bad}, std::invalid_argument);
  bad = {};
  bad.speed_sigma_kmh = -1.0;
  EXPECT_THROW(GaussMarkov{bad}, std::invalid_argument);
  bad = {};
  bad.reference_dt_s = 0.0;
  EXPECT_THROW(GaussMarkov{bad}, std::invalid_argument);
}

TEST(GaussMarkov, SpeedRevertsToMean) {
  GaussMarkovParams p;
  p.alpha = 0.9;
  p.mean_speed_kmh = 50.0;
  p.speed_sigma_kmh = 2.0;
  p.heading_sigma_deg = 5.0;
  GaussMarkov model{p};
  MotionState s;
  s.speed_kmh = 0.0;
  auto r = rng(11);
  double sum = 0.0;
  int count = 0;
  for (int i = 0; i < 3000; ++i) {
    model.step(s, 1.0, r);
    if (i > 500) {
      sum += s.speed_kmh;
      ++count;
    }
  }
  EXPECT_NEAR(sum / count, 50.0, 5.0);
}

TEST(GaussMarkov, SpeedNeverNegative) {
  GaussMarkovParams p;
  p.mean_speed_kmh = 1.0;
  p.speed_sigma_kmh = 10.0;  // noisy: would go negative without the clamp
  GaussMarkov model{p};
  MotionState s;
  auto r = rng(5);
  for (int i = 0; i < 2000; ++i) {
    model.step(s, 1.0, r);
    EXPECT_GE(s.speed_kmh, 0.0);
  }
}

TEST(GaussMarkov, AlphaOneIsStraightLine) {
  GaussMarkovParams p;
  p.alpha = 1.0;
  GaussMarkov model{p};
  MotionState s;
  s.speed_kmh = 30.0;
  s.heading_deg = 45.0;
  auto r = rng();
  for (int i = 0; i < 50; ++i) model.step(s, 1.0, r);
  EXPECT_NEAR(s.heading_deg, 45.0, 1e-9);
  EXPECT_NEAR(s.speed_kmh, 30.0, 1e-9);
}

TEST(RandomWaypoint, ValidatesParams) {
  EXPECT_THROW(RandomWaypoint(0.0), std::invalid_argument);
  EXPECT_THROW(RandomWaypoint(1.0, -1.0), std::invalid_argument);
}

TEST(RandomWaypoint, StaysWithinArea) {
  RandomWaypoint model{5.0};
  MotionState s;
  s.speed_kmh = 60.0;
  auto r = rng(17);
  for (int i = 0; i < 2000; ++i) {
    model.step(s, 5.0, r);
    EXPECT_LE(s.position_km.norm(), 5.0 + 1e-6) << "escaped at step " << i;
  }
}

TEST(RandomWaypoint, ParkedUserStaysPut) {
  RandomWaypoint model{5.0};
  MotionState s;
  s.speed_kmh = 0.0;
  s.position_km = {1.0, 1.0};
  auto r = rng();
  model.step(s, 100.0, r);
  EXPECT_EQ(s.position_km, (Vec2{1.0, 1.0}));
}

TEST(RandomWaypoint, PauseDelaysDeparture) {
  RandomWaypoint model{5.0, /*pause_s=*/1000.0};
  MotionState s;
  s.speed_kmh = 360.0;  // 0.1 km/s: reaches any waypoint within ~100 s
  auto r = rng(23);
  // Long enough to arrive somewhere and enter the pause.
  for (int i = 0; i < 30; ++i) model.step(s, 10.0, r);
  const Vec2 parked = s.position_km;
  model.step(s, 50.0, r);  // still pausing
  EXPECT_EQ(s.position_km, parked);
}

}  // namespace
}  // namespace facs::mobility
