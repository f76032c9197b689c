#include "mobility/model.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/detmath.hpp"

namespace facs::mobility {

using cellular::headingVector;
using cellular::normalizeAngleDeg;

namespace {

constexpr double kKmhToKms = 1.0 / 3600.0;  // km/h -> km/s

}  // namespace

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
  if (!(dt_s > 0.0)) {
    throw std::invalid_argument("mobility step requires dt_s > 0");
  }
  if (state.speed_kmh != sigma_speed_kmh_) {
    sigma_speed_kmh_ = state.speed_kmh;
    sigma_deg_ = sigmaDeg(state.speed_kmh);
  }
  const double sigma = sigma_deg_ * std::sqrt(dt_s);
  if (sigma > 0.0) {
    state.heading_deg = normalizeAngleDeg(state.heading_deg +
                                          sim::sampleNormal(rng, 0.0, sigma));
  }
  state.position_km =
      state.position_km +
      headingVector(state.heading_deg) * (state.speed_kmh * kKmhToKms * dt_s);
}

}  // namespace facs::mobility
