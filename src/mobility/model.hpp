#pragma once
/// \file model.hpp
/// The user mobility model.
///
/// The paper's evaluation rests on one behavioural premise (Section 4):
/// slow (walking) users change direction easily, so their trajectory is
/// hard to predict; fast (vehicular) users cannot turn sharply, so
/// prediction is reliable. SpeedDependentTurn encodes exactly that premise,
/// and it is the only model the simulator runs.

#include <cmath>
#include <limits>

#include "cellular/geometry.hpp"
#include "sim/rng.hpp"

namespace facs::mobility {

/// Ground-truth kinematic state of a user.
struct MotionState {
  cellular::Vec2 position_km{};
  double speed_kmh = 0.0;
  double heading_deg = 0.0;  ///< Math angle, (-180, 180].
};

/// Parameters of the speed-dependent direction-change model.
struct SpeedDependentTurnParams {
  /// Heading diffusion of a stationary user, in degrees per sqrt(second).
  /// A pedestrian (4 km/h) keeps most of this; a car (60+ km/h) almost none.
  double sigma_max_deg = 40.0;
  /// Speed scale of the decay: sigma(v) = sigma_max * exp(-v / v_ref_kmh).
  double v_ref_kmh = 18.0;
};

/// The paper's mobility premise: heading performs a random walk whose
/// standard deviation decays exponentially with speed. Speed is constant.
///
/// The simulator relies on that constancy: every step of a call covers the
/// same distance, stepKm(), so a call that provably cannot reach its cell's
/// border within k steps owes those steps instead of running them (see the
/// mover sweep in sim/simulator.cpp). A model whose speed varies would
/// break that bound.
class SpeedDependentTurn {
 public:
  explicit SpeedDependentTurn(SpeedDependentTurnParams params = {});

  /// Advances \p state by \p dt_s seconds.
  /// \throws std::invalid_argument if dt_s is not positive.
  void step(MotionState& state, double dt_s, sim::Rng& rng);

  /// Distance (km) every step of \p dt_s moves a user in \p state.
  [[nodiscard]] static double stepKm(const MotionState& state,
                                     double dt_s) noexcept {
    return std::abs(state.speed_kmh) / 3600.0 * dt_s;
  }

  /// Heading standard deviation (deg per sqrt-second) at a given speed.
  [[nodiscard]] double sigmaDeg(double speed_kmh) const noexcept;

  [[nodiscard]] const SpeedDependentTurnParams& params() const noexcept {
    return params_;
  }

 private:
  SpeedDependentTurnParams params_;
  /// sigmaDeg() at the speed of the last step. Speed is constant under
  /// this model, so a tracking walk pays for the exp() once, not per step.
  double sigma_speed_kmh_ = std::numeric_limits<double>::quiet_NaN();
  double sigma_deg_ = 0.0;
};

}  // namespace facs::mobility
