#include "mobility/gps.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace facs::mobility {
namespace {

using cellular::Vec2;

TEST(GpsSampler, ValidatesError) {
  EXPECT_THROW(GpsSampler(-1.0), std::invalid_argument);
  EXPECT_NO_THROW(GpsSampler(0.0));
}

TEST(GpsSampler, ZeroErrorReturnsTruth) {
  const GpsSampler sampler{0.0};
  sim::Rng rng = sim::makeRng(1);
  const GpsFix fix = sampler.sample(12.0, {3.0, 4.0}, rng);
  EXPECT_DOUBLE_EQ(fix.t_s, 12.0);
  EXPECT_EQ(fix.position_km, (Vec2{3.0, 4.0}));
}

TEST(GpsSampler, NoiseMagnitudeMatchesSigma) {
  const GpsSampler sampler{10.0};  // 10 m
  sim::Rng rng = sim::makeRng(2);
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const GpsFix fix = sampler.sample(0.0, {0.0, 0.0}, rng);
    sum_sq += fix.position_km.x * fix.position_km.x;
  }
  const double sigma_km = std::sqrt(sum_sq / n);
  EXPECT_NEAR(sigma_km, 0.010, 0.0005);
}

TEST(GpsEstimator, ValidatesWindow) {
  EXPECT_THROW(GpsEstimator(1), std::invalid_argument);
  EXPECT_NO_THROW(GpsEstimator(2));
}

TEST(GpsEstimator, RequiresTwoFixes) {
  GpsEstimator est;
  EXPECT_FALSE(est.ready());
  EXPECT_EQ(est.motion(), std::nullopt);
  EXPECT_THROW((void)est.snapshot({0.0, 0.0}), std::logic_error);
  est.addFix({0.0, {0.0, 0.0}});
  EXPECT_FALSE(est.ready());
  est.addFix({1.0, {0.1, 0.0}});
  EXPECT_TRUE(est.ready());
}

TEST(GpsEstimator, RejectsNonMonotonicTimestamps) {
  GpsEstimator est;
  est.addFix({5.0, {0.0, 0.0}});
  EXPECT_THROW(est.addFix({5.0, {1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(est.addFix({4.0, {1.0, 0.0}}), std::invalid_argument);
}

TEST(GpsEstimator, RecoversSpeedAndHeadingFromCleanFixes) {
  GpsEstimator est{4};
  // Due-east at 0.01 km/s = 36 km/h.
  for (int i = 0; i < 4; ++i) {
    est.addFix({i * 5.0, {i * 0.05, 0.0}});
  }
  const auto m = est.motion();
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(m->speed_kmh, 36.0, 1e-9);
  EXPECT_NEAR(m->heading_deg, 0.0, 1e-9);
  EXPECT_NEAR(m->position_km.x, 0.15, 1e-12);
}

TEST(GpsEstimator, WindowSlides) {
  GpsEstimator est{2};  // only the last two fixes matter
  est.addFix({0.0, {0.0, 0.0}});
  est.addFix({1.0, {0.0, 0.0}});   // stationary so far
  est.addFix({2.0, {0.01, 0.0}});  // then moves east at 36 km/h
  EXPECT_EQ(est.fixCount(), 2u);
  const auto m = est.motion();
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(m->speed_kmh, 36.0, 1e-9);
}

TEST(GpsEstimator, SnapshotMeasuresAngleRelativeToStation) {
  GpsEstimator est{2};
  // Moving due east, starting 2 km west of a station at the origin:
  // heading straight at it -> angle 0.
  est.addFix({0.0, {-2.0, 0.0}});
  est.addFix({10.0, {-1.9, 0.0}});
  const cellular::UserSnapshot s = est.snapshot({0.0, 0.0});
  EXPECT_NEAR(s.angle_deg, 0.0, 1e-9);
  EXPECT_NEAR(s.distance_km, 1.9, 1e-12);
  EXPECT_NEAR(s.speed_kmh, 36.0, 1e-9);

  // Station due north instead: the BS is 90 degrees to the left.
  const cellular::UserSnapshot n = est.snapshot({-1.9, 5.0});
  EXPECT_NEAR(n.angle_deg, -90.0, 1e-9);
}

TEST(GpsEstimator, NoisyFixesStillUsable) {
  // 10 m noise over a 30 s window at 36 km/h: speed error should be small.
  const GpsSampler sampler{10.0};
  sim::Rng rng = sim::makeRng(42);
  GpsEstimator est{7};
  for (int i = 0; i <= 6; ++i) {
    const Vec2 truth{i * 0.05, 0.0};  // 36 km/h east, 5 s fixes
    est.addFix(sampler.sample(i * 5.0, truth, rng));
  }
  const auto m = est.motion();
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(m->speed_kmh, 36.0, 5.0);
  EXPECT_NEAR(m->heading_deg, 0.0, 10.0);
}

TEST(SnapshotFromTruth, MatchesHandComputation) {
  MotionState state;
  state.position_km = {0.0, -3.0};
  state.speed_kmh = 72.0;
  state.heading_deg = 90.0;  // due north, straight at a station at origin
  const cellular::UserSnapshot s = snapshotFromTruth(state, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(s.speed_kmh, 72.0);
  EXPECT_NEAR(s.angle_deg, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.distance_km, 3.0);

  state.heading_deg = -90.0;  // directly away
  EXPECT_NEAR(std::abs(snapshotFromTruth(state, {0.0, 0.0}).angle_deg), 180.0,
              1e-12);
}

TEST(GpsEstimator, StationaryUserHasZeroSpeedZeroHeading) {
  GpsEstimator est{2};
  est.addFix({0.0, {1.0, 1.0}});
  est.addFix({5.0, {1.0, 1.0}});
  const auto m = est.motion();
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->speed_kmh, 0.0);
  EXPECT_DOUBLE_EQ(m->heading_deg, 0.0);
}

}  // namespace
}  // namespace facs::mobility
