#pragma once
/// \file workload.hpp
/// Workload scenarios: how requesting users are drawn. The presets encode
/// the parameter sweeps of the paper's Figs. 7-10 (Section 4).

#include <optional>

#include "cellular/call.hpp"
#include "cellular/traffic.hpp"
#include "mobility/model.hpp"
#include "sim/rng.hpp"

namespace facs::sim {

/// Distribution of requesting users for one experiment curve.
struct ScenarioParams {
  /// Speed drawn uniformly from [speed_min, speed_max] km/h (equal = fixed).
  double speed_min_kmh = 0.0;
  double speed_max_kmh = 120.0;

  /// Initial heading deviation from the bearing toward the serving BS,
  /// drawn from N(angle_mean, angle_sigma) degrees. sigma 0 = exact.
  double angle_mean_deg = 0.0;
  double angle_sigma_deg = 15.0;

  /// Distance to the serving BS drawn uniformly from [min, max] km.
  double distance_min_km = 0.0;
  double distance_max_km = 10.0;

  /// Service-class arrival mix (paper default 60/30/10 %).
  cellular::TrafficMix mix = cellular::TrafficMix::paperDefault();

  /// Mobility while tracked and while in call (the paper's premise: slow
  /// users turn, fast users cannot).
  mobility::SpeedDependentTurnParams turn{};

  /// GPS observation window before the admission decision. During the
  /// window the user moves, so slow users' measured angle drifts — this is
  /// what makes their trajectory "difficult to predict" (Section 4).
  /// Zero = decide immediately on ground truth.
  double tracking_window_s = 30.0;
  double gps_fix_period_s = 5.0;
  /// 1-sigma horizontal GPS error in metres; nullopt = noiseless truth.
  std::optional<double> gps_error_m = 10.0;
};

/// Upper bound on the GPS fixes one tracked request collects — a sanity cap
/// (an hour of 1 s fixes fits) so an absurd tracking window / fix period
/// ratio is rejected instead of overflowing an int or stalling every call.
inline constexpr int kMaxGpsFixes = 10'000;

/// GPS fixes one tracked request collects (tracking_window_s > 0): one at
/// arrival plus one per whole fix period in the window.
/// \throws std::invalid_argument above kMaxGpsFixes (or for a NaN ratio).
[[nodiscard]] int gpsFixCount(const ScenarioParams& scenario);

/// One sampled request (before tracking / admission).
struct RequestPlan {
  mobility::MotionState initial;
  cellular::ServiceClass service = cellular::ServiceClass::Text;
  cellular::CellId target_cell = 0;
};

/// Draws one request around the station at \p station_center.
[[nodiscard]] RequestPlan drawRequest(const ScenarioParams& scenario,
                                      cellular::Vec2 station_center,
                                      cellular::CellId target_cell, Rng& rng);

/// \name Paper evaluation presets
/// Common base: BS 40 BU; text/voice/video = 1/5/10 BU at 60/30/10 %;
/// speed in [0,120] km/h, angle in [-180,180] deg, distance in [0,10] km.
///@{

/// Fig. 7 — fixed speed, heading initially toward the BS, full mobility:
/// the measured angle of slow users drifts during the tracking window.
[[nodiscard]] ScenarioParams fig7Scenario(double speed_kmh);

/// Fig. 8 — exact angle at decision time (no tracking drift, no GPS noise),
/// speeds drawn from the full range.
[[nodiscard]] ScenarioParams fig8Scenario(double angle_deg);

/// Fig. 9 — exact distance at decision time, default angle spread.
[[nodiscard]] ScenarioParams fig9Scenario(double distance_km);

/// Fig. 10 — the mixed default population used for the FACS vs SCC
/// comparison: speeds uniform over [0,120], angles spread around straight,
/// distances over the full cell.
[[nodiscard]] ScenarioParams fig10Scenario();

///@}

}  // namespace facs::sim
