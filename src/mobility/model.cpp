#include "mobility/model.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/detmath.hpp"

namespace facs::mobility {

using cellular::headingVector;
using cellular::normalizeAngleDeg;
using cellular::Vec2;

namespace {

constexpr double kKmhToKms = 1.0 / 3600.0;  // km/h -> km/s

void requirePositiveDt(double dt_s) {
  if (!(dt_s > 0.0)) {
    throw std::invalid_argument("mobility step requires dt_s > 0");
  }
}

void advance(MotionState& state, double dt_s) {
  state.position_km =
      state.position_km +
      headingVector(state.heading_deg) * (state.speed_kmh * kKmhToKms * dt_s);
}

}  // namespace

void ConstantVelocity::step(MotionState& state, double dt_s,
                            sim::Rng& /*rng*/) {
  requirePositiveDt(dt_s);
  advance(state, dt_s);
}

SpeedDependentTurn::SpeedDependentTurn(SpeedDependentTurnParams params)
    : params_{params} {
  if (!(params_.sigma_max_deg >= 0.0)) {
    throw std::invalid_argument("sigma_max_deg must be >= 0");
  }
  if (!(params_.v_ref_kmh > 0.0)) {
    throw std::invalid_argument("v_ref_kmh must be > 0");
  }
}

double SpeedDependentTurn::sigmaDeg(double speed_kmh) const noexcept {
  const double v = speed_kmh < 0.0 ? 0.0 : speed_kmh;
  return params_.sigma_max_deg * detmath::exp(-v / params_.v_ref_kmh);
}

void SpeedDependentTurn::step(MotionState& state, double dt_s,
                              sim::Rng& rng) {
  requirePositiveDt(dt_s);
  if (state.speed_kmh != sigma_speed_kmh_) {
    sigma_speed_kmh_ = state.speed_kmh;
    sigma_deg_ = sigmaDeg(state.speed_kmh);
  }
  const double sigma = sigma_deg_ * std::sqrt(dt_s);
  if (sigma > 0.0) {
    state.heading_deg = normalizeAngleDeg(state.heading_deg +
                                          sim::sampleNormal(rng, 0.0, sigma));
  }
  advance(state, dt_s);
}

GaussMarkov::GaussMarkov(GaussMarkovParams params) : params_{params} {
  if (params_.alpha < 0.0 || params_.alpha > 1.0) {
    throw std::invalid_argument("Gauss-Markov alpha must be in [0, 1]");
  }
  if (!(params_.speed_sigma_kmh >= 0.0) ||
      !(params_.heading_sigma_deg >= 0.0)) {
    throw std::invalid_argument("Gauss-Markov sigmas must be >= 0");
  }
  if (!(params_.reference_dt_s > 0.0)) {
    throw std::invalid_argument("Gauss-Markov reference period must be > 0");
  }
}

void GaussMarkov::step(MotionState& state, double dt_s, sim::Rng& rng) {
  requirePositiveDt(dt_s);
  if (!mean_heading_set_) {
    mean_heading_deg_ = state.heading_deg;
    mean_heading_set_ = true;
  }
  // Normalize memory to the reference period so behaviour is dt-invariant.
  const double steps = dt_s / params_.reference_dt_s;
  const double a = detmath::pow(params_.alpha, steps);
  const double noise_scale = std::sqrt(1.0 - a * a);

  state.speed_kmh =
      a * state.speed_kmh + (1.0 - a) * params_.mean_speed_kmh +
      noise_scale * params_.speed_sigma_kmh * rng.standardNormal();
  if (state.speed_kmh < 0.0) state.speed_kmh = 0.0;

  // Revert around the mean heading through the smallest angle difference.
  const double diff = normalizeAngleDeg(state.heading_deg - mean_heading_deg_);
  const double new_diff =
      a * diff +
      noise_scale * params_.heading_sigma_deg * rng.standardNormal();
  state.heading_deg = normalizeAngleDeg(mean_heading_deg_ + new_diff);

  advance(state, dt_s);
}

RandomWaypoint::RandomWaypoint(double area_radius_km, double pause_s)
    : area_radius_km_{area_radius_km}, pause_s_{pause_s} {
  if (!(area_radius_km_ > 0.0)) {
    throw std::invalid_argument("random waypoint radius must be > 0");
  }
  if (pause_s_ < 0.0) {
    throw std::invalid_argument("random waypoint pause must be >= 0");
  }
}

void RandomWaypoint::pickWaypoint(const MotionState& /*state*/,
                                  sim::Rng& rng) {
  // Uniform over the disc (sqrt radius transform).
  const double r = area_radius_km_ * std::sqrt(rng.uniform01());
  waypoint_ = headingVector(360.0 * rng.uniform01()) * r;
  has_waypoint_ = true;
}

void RandomWaypoint::step(MotionState& state, double dt_s,
                          sim::Rng& rng) {
  requirePositiveDt(dt_s);
  double remaining_s = dt_s;
  while (remaining_s > 0.0) {
    if (pause_remaining_s_ > 0.0) {
      const double wait = std::min(pause_remaining_s_, remaining_s);
      pause_remaining_s_ -= wait;
      remaining_s -= wait;
      continue;
    }
    if (!has_waypoint_) pickWaypoint(state, rng);

    const Vec2 to_wp = waypoint_ - state.position_km;
    const double dist = to_wp.norm();
    const double speed_kms = state.speed_kmh * kKmhToKms;
    if (speed_kms <= 0.0) return;  // parked user: nothing further to do

    state.heading_deg = cellular::bearingDeg(state.position_km, waypoint_);
    const double travel = speed_kms * remaining_s;
    if (travel < dist) {
      advance(state, remaining_s);
      return;
    }
    // Arrive at the waypoint, then pause and re-draw.
    state.position_km = waypoint_;
    remaining_s -= dist / speed_kms;
    pause_remaining_s_ = pause_s_;
    has_waypoint_ = false;
  }
}

}  // namespace facs::mobility
