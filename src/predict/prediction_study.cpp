#include "predict/prediction_study.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/facs.hpp"
#include "mobility/gps.hpp"
#include "sim/detmath.hpp"

namespace facs::predict {

using cellular::Vec2;

double rocAuc(const std::vector<double>& positive_scores,
              const std::vector<double>& negative_scores) {
  if (positive_scores.empty() || negative_scores.empty()) {
    throw std::invalid_argument("AUC needs both outcome classes");
  }
  double wins = 0.0;
  for (const double p : positive_scores) {
    for (const double n : negative_scores) {
      if (p > n) {
        wins += 1.0;
      } else if (p == n) {
        wins += 0.5;
      }
    }
  }
  return wins / (static_cast<double>(positive_scores.size()) *
                 static_cast<double>(negative_scores.size()));
}

namespace {

/// Tracks one synthetic user through the GPS window exactly the way the
/// simulator does, returning the controller-visible snapshot and the
/// ground-truth state at decision time.
struct TrackedUser {
  cellular::UserSnapshot snapshot;
  mobility::MotionState truth;
  mobility::SpeedDependentTurn model;
};

TrackedUser track(const sim::ScenarioParams& scenario, sim::Rng& rng) {
  TrackedUser user;
  const sim::RequestPlan plan = sim::drawRequest(scenario, {0.0, 0.0}, 0, rng);
  user.truth = plan.initial;
  user.model = mobility::SpeedDependentTurn{scenario.turn};

  const double window = scenario.tracking_window_s;
  if (window > 0.0) {
    const mobility::GpsSampler sampler{scenario.gps_error_m.value_or(0.0)};
    const double period = scenario.gps_fix_period_s;
    const int fixes = sim::gpsFixCount(scenario);
    mobility::GpsEstimator estimator{
        static_cast<std::size_t>(std::max(2, fixes))};
    estimator.addFix(sampler.sample(0.0, user.truth.position_km, rng));
    for (int i = 1; i < fixes; ++i) {
      user.model.step(user.truth, period, rng);
      estimator.addFix(sampler.sample(i * period, user.truth.position_km, rng));
    }
    user.snapshot = estimator.snapshot({0.0, 0.0});
    user.snapshot.position = user.truth.position_km;
  } else {
    user.snapshot = mobility::snapshotFromTruth(user.truth, {0.0, 0.0});
  }
  return user;
}

}  // namespace

StudyResult runPredictionStudy(const PredictionConfig& config) {
  if (!(config.horizon_s > 0.0) || !(config.step_s > 0.0)) {
    throw std::invalid_argument("prediction horizon and step must be positive");
  }
  if (config.samples < 2) {
    throw std::invalid_argument("prediction study needs >= 2 samples");
  }

  const core::FacsController facs;
  sim::Rng rng = sim::makeRng(config.seed, 17);

  // Scores per predictor, split by the eventual outcome.
  struct ScoreBuckets {
    std::vector<double> approachers;
    std::vector<double> retreaters;
  };
  ScoreBuckets cv_scores;
  ScoreBuckets straight_scores;
  ScoreBuckets proximity_scores;

  StudyResult result;
  for (int i = 0; i < config.samples; ++i) {
    TrackedUser user = track(config.scenario, rng);

    const double cv = facs.predictCv(user.snapshot);
    // Dead reckoning: the stated velocity carries the user toward the BS
    // when the measured angle is small — exactly what a shadow-cluster
    // projection assumes.
    const double straight = detmath::sincosDeg(user.snapshot.angle_deg).cos;
    const double proximity = -user.snapshot.distance_km;

    // Ground truth: roll the real mobility forward.
    const double start_distance = user.truth.position_km.norm();
    mobility::MotionState state = user.truth;
    for (double t = 0.0; t < config.horizon_s; t += config.step_s) {
      user.model.step(state, config.step_s, rng);
    }
    const bool approached = state.position_km.norm() < start_distance;

    ScoreBuckets* buckets[] = {&cv_scores, &straight_scores,
                               &proximity_scores};
    const double scores[] = {cv, straight, proximity};
    for (int p = 0; p < 3; ++p) {
      if (approached) {
        buckets[p]->approachers.push_back(scores[p]);
      } else {
        buckets[p]->retreaters.push_back(scores[p]);
      }
    }
    approached ? ++result.approachers : ++result.retreaters;
  }

  const auto mean = [](const std::vector<double>& xs) {
    if (xs.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : xs) sum += x;
    return sum / static_cast<double>(xs.size());
  };
  const auto report = [&](const std::string& name, const ScoreBuckets& b) {
    PredictorReport r;
    r.name = name;
    r.auc = (b.approachers.empty() || b.retreaters.empty())
                ? 0.5
                : rocAuc(b.approachers, b.retreaters);
    r.mean_score_approachers = mean(b.approachers);
    r.mean_score_retreaters = mean(b.retreaters);
    return r;
  };
  result.predictors.push_back(report("facs-cv", cv_scores));
  result.predictors.push_back(report("straight-line", straight_scores));
  result.predictors.push_back(report("proximity", proximity_scores));
  return result;
}

}  // namespace facs::predict
