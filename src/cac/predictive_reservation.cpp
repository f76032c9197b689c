#include "cac/predictive_reservation.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "cellular/policy_registry.hpp"

namespace facs::cac {

using cellular::AdmissionContext;
using cellular::AdmissionDecision;
using cellular::CallRequest;
using cellular::CellId;
using cellular::Vec2;

PredictiveReservationController::PredictiveReservationController(
    const cellular::HexNetwork& network, PredictiveReservationConfig config)
    : network_{network},
      config_{config},
      reserved_(network.cellCount(), 0.0) {
  if (config_.reservation_fraction < 0.0 ||
      config_.reservation_fraction > 1.0) {
    throw std::invalid_argument("reservation fraction must be in [0, 1]");
  }
  if (config_.min_speed_kmh < 0.0) {
    throw std::invalid_argument("minimum speed must be >= 0");
  }
}

std::optional<CellId> PredictiveReservationController::predictNextCell(
    const cellular::UserSnapshot& snapshot, CellId serving_cell) const {
  if (snapshot.speed_kmh < config_.min_speed_kmh) return std::nullopt;
  // Straight-line: march along the measured heading until the cell
  // changes or the look-ahead (one cell diameter) is exhausted.
  const double heading = cellular::normalizeAngleDeg(
      cellular::bearingDeg(snapshot.position,
                           network_.cell(serving_cell).center) +
      snapshot.angle_deg);
  const Vec2 dir = cellular::headingVector(heading);
  const double lookahead_km = 2.0 * network_.cellRadiusKm();
  const double step_km = network_.cellRadiusKm() / 10.0;
  for (double d = step_km; d <= lookahead_km; d += step_km) {
    const auto cell = network_.cellAt(snapshot.position + dir * d);
    if (!cell) return std::nullopt;  // leaves coverage first
    if (*cell != serving_cell) return *cell;
  }
  return std::nullopt;  // stays home over the horizon
}

AdmissionDecision PredictiveReservationController::decide(
    const CallRequest& request, const AdmissionContext& context) {
  const double reserved =
      request.is_handoff ? 0.0 : reservedBu(context.station.cell());
  const double usable =
      static_cast<double>(context.station.freeBu()) - reserved;
  const bool fits_hard = context.station.canFit(request.demand_bu);
  const bool accept =
      fits_hard && static_cast<double>(request.demand_bu) <= usable;

  AdmissionDecision d;
  d.accept = accept;
  d.reason = accept      ? cellular::ReasonCode::Admitted
             : fits_hard ? cellular::ReasonCode::ReservedForHandoff
                         : cellular::ReasonCode::NoCapacity;
  d.score = accept ? 1.0 : -1.0;
  if (context.explain) {
    std::ostringstream os;
    os << (request.is_handoff ? "handoff" : "new") << " free="
       << context.station.freeBu() << " reserved=" << reserved
       << " need=" << request.demand_bu;
    d.rationale = os.str();
  }
  return d;
}

void PredictiveReservationController::apply(CellId cell, double bu) {
  double& reserved = reserved_[static_cast<std::size_t>(cell)];
  reserved = bu >= 0.0 ? reserved + bu : std::max(0.0, reserved + bu);
}

void PredictiveReservationController::release(cellular::CallId call) {
  const auto it = records_.find(call);
  if (it == records_.end()) return;
  apply(it->second.cell, -it->second.bu);
  records_.erase(it);
}

void PredictiveReservationController::onAdmitted(
    const CallRequest& request, const AdmissionContext& context) {
  const CellId serving = context.station.cell();
  release(request.call);  // handoffs re-predict from the new cell
  if (config_.reservation_fraction == 0.0) return;
  const auto next = predictNextCell(request.snapshot, serving);
  if (!next) return;
  const Reservation r{*next, config_.reservation_fraction *
                                 static_cast<double>(request.demand_bu)};
  records_[request.call] = r;
  apply(r.cell, r.bu);
}

void PredictiveReservationController::onReleased(
    const CallRequest& request, const AdmissionContext& /*context*/) {
  release(request.call);
}

// ------------------------------------------------------------------------
namespace {

using cellular::PolicyRegistrar;
using cellular::PolicySpec;

const PolicyRegistrar register_rsv{
    {"rsv",
     "Predictive reservation (Yu & Leung 2001): each mobile's velocity "
     "reserves bandwidth in its predicted next cell.",
     "rsv[:FRACTION][,frac=F,minspeed=KMH]  (fraction in [0,1], default "
     "0.5)"},
    [](const PolicySpec& spec) -> cellular::ControllerFactory {
      spec.expectOnly(1, {"frac", "minspeed"});
      PredictiveReservationConfig cfg;
      cfg.reservation_fraction =
          spec.numberFor("frac", spec.numberAt(0, cfg.reservation_fraction));
      cfg.min_speed_kmh = spec.numberFor("minspeed", cfg.min_speed_kmh);
      if (cfg.reservation_fraction < 0.0 || cfg.reservation_fraction > 1.0) {
        throw cellular::PolicySpecError(
            "policy 'rsv': reservation fraction must be in [0, 1]");
      }
      if (cfg.min_speed_kmh < 0.0) {
        throw cellular::PolicySpecError(
            "policy 'rsv': minimum speed must be >= 0");
      }
      return [cfg](const cellular::HexNetwork& net) {
        return std::make_unique<PredictiveReservationController>(net, cfg);
      };
    }};

}  // namespace

}  // namespace facs::cac
