#pragma once
/// \file predictive_reservation.hpp
/// Mobility-based predictive bandwidth reservation, after Yu & Leung
/// (INFOCOM 2001) — reference [7] of the paper. Each admitted mobile's
/// velocity predicts its most likely next cell; that cell reserves a
/// fraction of the call's bandwidth for the expected handoff. New calls
/// are admitted only if they fit alongside the cell's outstanding
/// reservations; handoffs may consume the reservations (that is what they
/// are for). A call's hooks write its predicted next cell, so the engine
/// runs the policy on one commit group.

#include <optional>
#include <unordered_map>
#include <vector>

#include "cellular/admission.hpp"
#include "cellular/network.hpp"

namespace facs::cac {

struct PredictiveReservationConfig {
  /// Fraction of an active call's bandwidth reserved in its predicted
  /// next cell (0 disables, 1 reserves the full demand).
  double reservation_fraction = 0.5;
  /// Only mobiles faster than this are expected to hand off soon enough
  /// to be worth a reservation.
  double min_speed_kmh = 10.0;
};

/// Tracks predicted-handoff reservations per cell and gates new calls on
/// capacity minus reservations.
class PredictiveReservationController final
    : public cellular::AdmissionController {
 public:
  /// \param network not owned; must outlive the controller.
  /// \throws std::invalid_argument for a fraction outside [0, 1] or a
  ///         negative speed gate.
  PredictiveReservationController(const cellular::HexNetwork& network,
                                  PredictiveReservationConfig config = {});

  [[nodiscard]] std::string name() const override { return "PredictiveRsv"; }

  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override;

  void onAdmitted(const cellular::CallRequest& request,
                  const cellular::AdmissionContext& context) override;
  void onReleased(const cellular::CallRequest& request,
                  const cellular::AdmissionContext& context) override;

  /// Outstanding reserved bandwidth in a cell (fractional BUs).
  [[nodiscard]] double reservedBu(cellular::CellId cell) const {
    return reserved_.at(static_cast<std::size_t>(cell));
  }

  /// The cell a mobile with this snapshot is predicted to enter next
  /// (straight-line extrapolation), if any and different from the serving
  /// cell.
  [[nodiscard]] std::optional<cellular::CellId> predictNextCell(
      const cellular::UserSnapshot& snapshot,
      cellular::CellId serving_cell) const;

 private:
  /// Per admitted call: where its reservation lives and how much.
  struct Reservation {
    cellular::CellId cell = cellular::kInvalidCell;
    double bu = 0.0;
  };

  /// Adds \p bu to a cell's reservation, or releases -bu of it (floored at
  /// zero).
  void apply(cellular::CellId cell, double bu);
  /// Releases \p call's reservation, if it holds one.
  void release(cellular::CallId call);

  const cellular::HexNetwork& network_;
  PredictiveReservationConfig config_;
  std::vector<double> reserved_;  ///< Indexed by cell.
  std::unordered_map<cellular::CallId, Reservation> records_;
};

}  // namespace facs::cac
