#include "scc/shadow_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cellular/policy_registry.hpp"
#include "sim/detmath.hpp"

namespace facs::scc {

using cellular::AdmissionContext;
using cellular::AdmissionDecision;
using cellular::CallRequest;
using cellular::CellId;
using cellular::Vec2;

mobility::MotionState motionFromSnapshot(
    const cellular::UserSnapshot& snapshot,
    Vec2 station_position) noexcept {
  mobility::MotionState m;
  m.position_km = snapshot.position;
  m.speed_kmh = snapshot.speed_kmh;
  // snapshot.angle_deg = heading - bearing(user -> BS), so invert.
  m.heading_deg = cellular::normalizeAngleDeg(
      cellular::bearingDeg(snapshot.position, station_position) +
      snapshot.angle_deg);
  return m;
}

namespace {

void validateConfig(const SccConfig& config) {
  if (config.intervals < 1 || config.intervals > kMaxIntervals) {
    throw std::invalid_argument("SCC horizon must span 1.." +
                                std::to_string(kMaxIntervals) + " intervals");
  }
  if (!(config.interval_s > 0.0)) {
    throw std::invalid_argument("SCC interval length must be positive");
  }
  if (!(config.intervals * config.interval_s <= kMaxHorizonS)) {
    throw std::invalid_argument(
        "SCC horizon (intervals x interval-s) must not exceed " +
        std::to_string(static_cast<long>(kMaxHorizonS)) + " s");
  }
  if (!(config.threshold > 0.0)) {
    throw std::invalid_argument("SCC survivability threshold must be positive");
  }
  if (config.cluster_radius < 0) {
    throw std::invalid_argument("SCC cluster radius must be >= 0");
  }
  if (!(config.sigma_base_km > 0.0) || config.sigma_growth_km < 0.0) {
    throw std::invalid_argument("SCC spread parameters must be positive");
  }
  if (!(config.mean_holding_s > 0.0)) {
    throw std::invalid_argument("SCC mean holding time must be positive");
  }
  if (config.rebuild_every < 0) {
    throw std::invalid_argument("SCC rebuild period must be >= 0 (0 = off)");
  }
  if (config.reach < 0) {
    throw std::invalid_argument(
        "SCC accounting reach must be >= 0 (0 = unbounded)");
  }
}

}  // namespace

ShadowClusterController::ShadowClusterController(
    const cellular::HexNetwork& network, SccConfig config)
    : network_{network}, config_{config} {
  validateConfig(config_);
  horizon_.resize(static_cast<std::size_t>(config_.intervals));
  for (int k = 0; k < config_.intervals; ++k) {
    Horizon& h = horizon_[static_cast<std::size_t>(k)];
    h.mid_s = (k + 0.5) * config_.interval_s;
    h.p_active = detmath::exp(-h.mid_s / config_.mean_holding_s);
    const double sigma_km =
        config_.sigma_base_km + config_.sigma_growth_km * k;
    h.two_sigma_sq = 2.0 * sigma_km * sigma_km;
  }
  demand_.assign(network_.cellCount() *
                     static_cast<std::size_t>(config_.intervals),
                 0.0);
  clusters_.resize(network_.cellCount());
  for (const cellular::Cell& center : network_.cells()) {
    for (const cellular::Cell& cell : network_.cells()) {
      if (cellular::hexDistance(center.coord, cell.coord) <=
          config_.cluster_radius) {
        clusters_[static_cast<std::size_t>(center.id)].push_back(cell.id);
      }
    }
  }
  all_cells_.reserve(network_.cellCount());
  for (const cellular::Cell& cell : network_.cells()) {
    all_cells_.push_back(cell.id);
  }
  if (config_.reach > 0) {
    footprints_.resize(network_.cellCount());
    for (const cellular::Cell& center : network_.cells()) {
      for (const cellular::Cell& cell : network_.cells()) {
        if (cellular::hexDistance(center.coord, cell.coord) <=
            config_.reach) {
          footprints_[static_cast<std::size_t>(center.id)].push_back(cell.id);
        }
      }
    }
  }
}

const std::vector<cellular::CellId>& ShadowClusterController::footprint(
    cellular::CellId anchor) const {
  if (footprints_.empty()) return all_cells_;
  return footprints_[static_cast<std::size_t>(anchor)];
}

ShadowClusterController::Shadow ShadowClusterController::shadowOf(
    const CallRequest& request, CellId center) const {
  Shadow shadow;
  shadow.state =
      motionFromSnapshot(request.snapshot, network_.cell(center).center);
  shadow.heading = cellular::headingVector(shadow.state.heading_deg);
  shadow.demand_bu = static_cast<double>(request.demand_bu);
  shadow.anchor = center;
  return shadow;
}

double ShadowClusterController::contribution(const Shadow& shadow, CellId cell,
                                             int k) const {
  // Position is projected from the shadow's last report (admission or
  // handoff — when the original scheme's inter-BS messages refresh it);
  // activity decay is memoryless, so it only depends on how far into the
  // future we look. Only the distance depends on the cell.
  const Horizon& h = horizon_[static_cast<std::size_t>(k)];
  const Vec2 predicted =
      shadow.state.position_km +
      shadow.heading * (shadow.state.speed_kmh / 3600.0 * h.mid_s);
  const Vec2 d = predicted - network_.cell(cell).center;
  // Unnormalized Gauss kernel: each BS accumulates the probability that
  // the mobile shows up in *its* cell independently, which (like the
  // original scheme's per-BS bookkeeping) deliberately over-reserves when
  // a mobile threatens several cells at once.
  const double spatial =
      detmath::exp(-(d.x * d.x + d.y * d.y) / h.two_sigma_sq);
  return shadow.demand_bu * h.p_active * spatial;
}

void ShadowClusterController::applyShadow(const Shadow& shadow, double sign) {
  for (const cellular::CellId cell : footprint(shadow.anchor)) {
    for (int k = 0; k < config_.intervals; ++k) {
      demand_[demandIndex(cell, k)] += sign * contribution(shadow, cell, k);
    }
  }
  ++updates_since_rebuild_;
}

void ShadowClusterController::maybeRebuild() {
  if (config_.rebuild_every <= 0 ||
      updates_since_rebuild_ <
          static_cast<std::uint64_t>(config_.rebuild_every)) {
    return;
  }
  updates_since_rebuild_ = 0;
  // Canonical call order makes the sums independent of hash-map bucket
  // history.
  std::vector<cellular::CallId> ids;
  ids.reserve(shadows_.size());
  for (const auto& [id, shadow] : shadows_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  std::fill(demand_.begin(), demand_.end(), 0.0);
  for (const cellular::CallId id : ids) {
    const Shadow& shadow = shadows_.find(id)->second;
    for (const cellular::CellId cell : footprint(shadow.anchor)) {
      for (int k = 0; k < config_.intervals; ++k) {
        demand_[demandIndex(cell, k)] += contribution(shadow, cell, k);
      }
    }
  }
}

DemandProfile ShadowClusterController::projectedDemand(CellId cell) const {
  DemandProfile profile(static_cast<std::size_t>(config_.intervals), 0.0);
  for (int k = 0; k < config_.intervals; ++k) {
    profile[static_cast<std::size_t>(k)] = demandAt(cell, k);
  }
  return profile;
}

AdmissionDecision ShadowClusterController::decide(
    const CallRequest& request, const AdmissionContext& context) {
  CellId center = request.target_cell;
  if (center == cellular::kInvalidCell) {
    const auto found = network_.cellAt(request.snapshot.position);
    center = found.value_or(context.station.cell());
  }

  const Shadow tentative = shadowOf(request, center);

  // A shadow cluster can only guarantee QoS inside the network: a mobile
  // predicted to exit coverage within the horizon is denied outright.
  if (config_.require_coverage) {
    for (const Horizon& h : horizon_) {
      const Vec2 predicted =
          tentative.state.position_km +
          tentative.heading * (tentative.state.speed_kmh / 3600.0 * h.mid_s);
      if (!network_.cellAt(predicted)) {
        AdmissionDecision denial;
        denial.accept = false;
        denial.reason = cellular::ReasonCode::LeavesCoverage;
        denial.score = -1.0;
        if (context.explain) {
          denial.rationale = "predicted to leave coverage within the horizon";
        }
        return denial;
      }
    }
  }

  // Every cell of the tentative shadow cluster must be able to support the
  // projected demand over the whole horizon. Existing demand is the
  // incremental per-BS accumulator — an O(1) read per (cell, interval), so
  // the decision cost is flat in the number of tracked calls.
  double worst_headroom = std::numeric_limits<double>::infinity();
  for (const CellId cell : clusters_[static_cast<std::size_t>(center)]) {
    const double budget =
        config_.threshold *
        static_cast<double>(network_.station(cell).capacityBu());
    for (int k = 0; k < config_.intervals; ++k) {
      const double projected =
          demandAt(cell, k) + contribution(tentative, cell, k);
      worst_headroom = std::min(worst_headroom, budget - projected);
    }
  }

  const bool fits = context.station.canFit(request.demand_bu);
  AdmissionDecision decision;
  decision.accept = worst_headroom >= 0.0 && fits;
  decision.reason = decision.accept ? cellular::ReasonCode::Admitted
                    : fits          ? cellular::ReasonCode::ProjectedOverload
                                    : cellular::ReasonCode::NoCapacity;
  // Coarse confidence: headroom as a fraction of one cell's budget.
  const double budget =
      config_.threshold * static_cast<double>(context.station.capacityBu());
  decision.score = std::clamp(worst_headroom / budget, -1.0, 1.0);
  if (context.explain) {
    decision.rationale.appendf("worst-headroom=%g BU over %d intervals",
                               worst_headroom, config_.intervals);
    if (!fits) decision.rationale.appendf(" (no free BU)");
  }
  return decision;
}

void ShadowClusterController::onAdmitted(const CallRequest& request,
                                         const AdmissionContext& context) {
  CellId center = request.target_cell;
  if (center == cellular::kInvalidCell) center = context.station.cell();
  const Shadow shadow = shadowOf(request, center);
  const auto [it, inserted] = shadows_.try_emplace(request.call, shadow);
  if (!inserted) {
    // Handoff refresh: retract the stale shadow before casting the new one.
    applyShadow(it->second, -1.0);
    it->second = shadow;
  }
  applyShadow(shadow, +1.0);
  maybeRebuild();
}

void ShadowClusterController::onReleased(const CallRequest& request,
                                         const AdmissionContext& /*context*/) {
  // A miss means the call was never tracked: nothing to retract.
  const auto it = shadows_.find(request.call);
  if (it == shadows_.end()) return;
  applyShadow(it->second, -1.0);
  shadows_.erase(it);
  maybeRebuild();
}

std::string ShadowClusterController::auditWorkload(
    const cellular::WorkloadEnvelope& envelope) const {
  std::ostringstream os;
  const auto warn = [&os]() -> std::ostringstream& {
    if (os.tellp() > 0) os << "; ";
    return os;
  };
  const double horizon_s = config_.intervals * config_.interval_s;
  // Activity decays as exp(-t / holding): a horizon many holding times
  // long projects shadows of calls that have almost surely ended.
  if (horizon_s > kHorizonAuditFactor * config_.mean_holding_s) {
    warn() << "SCC horizon " << horizon_s << " s is over "
           << kHorizonAuditFactor << "x the mean holding time ("
           << config_.mean_holding_s
           << " s): its later intervals project calls that have ended";
  }
  if (!(envelope.v_max_kmh > 0.0) || !(envelope.cell_radius_km > 0.0)) {
    return os.str();  // envelope unknown: no basis for the rest
  }
  // The fastest mobile crosses the whole coverage (its diameter) in
  // crossing_s; a horizon far past that projects every fast shadow out of
  // coverage, which blocks its call (require_coverage) or drops its demand.
  double coverage_km = 0.0;
  for (const cellular::Cell& cell : network_.cells()) {
    coverage_km = std::max(coverage_km, cell.center.norm());
  }
  coverage_km += envelope.cell_radius_km;
  const double crossing_s = 2.0 * coverage_km / (envelope.v_max_kmh / 3600.0);
  if (horizon_s > kHorizonAuditFactor * crossing_s) {
    warn() << "SCC horizon " << horizon_s << " s is over "
           << kHorizonAuditFactor << "x the " << crossing_s << " s a v_max="
           << envelope.v_max_kmh
           << " km/h mobile takes to cross the coverage: fast mobiles are "
              "projected out of coverage";
  }
  if (config_.reach <= 0) return os.str();  // unbounded accounting
  // One hex hop between cell centres is sqrt(3) x circumradius; the
  // fastest mobile travels v_max x horizon within the projection window.
  const double pitch_km = std::sqrt(3.0) * envelope.cell_radius_km;
  const double travel_km = envelope.v_max_kmh / 3600.0 * horizon_s;
  const int needed = static_cast<int>(std::ceil(travel_km / pitch_km)) + 1;
  if (config_.reach < needed) {
    warn() << "SCC reach=" << config_.reach
           << " is smaller than the projection horizon needs (reach >= "
           << needed << " for v_max=" << envelope.v_max_kmh << " km/h over "
           << horizon_s
           << " s): predicted cells of fast mobiles fall outside the "
              "accounting footprint, silently disabling their predictive "
              "reservations";
  }
  return os.str();
}

// ------------------------------------------------------------------------
namespace {

using cellular::PolicyRegistrar;
using cellular::PolicySpec;

const PolicyRegistrar register_scc{
    {"scc",
     "Shadow Cluster Concept (Levine et al. 1997): probabilistic demand "
     "projection over neighbouring cells.",
     "scc[:THETA][,theta=T,sigma=S,growth=G,intervals=N,interval-s=S,"
     "radius=R,holding=S,coverage=0|1,rebuild=N,reach=N]"},
    [](const PolicySpec& spec) -> cellular::ControllerFactory {
      spec.expectOnly(1, {"theta", "sigma", "growth", "intervals",
                          "interval-s", "radius", "holding", "coverage",
                          "rebuild", "reach"});
      SccConfig cfg;
      cfg.threshold = spec.numberFor("theta", spec.numberAt(0, cfg.threshold));
      cfg.sigma_base_km = spec.numberFor("sigma", cfg.sigma_base_km);
      cfg.sigma_growth_km = spec.numberFor("growth", cfg.sigma_growth_km);
      cfg.intervals = spec.intFor("intervals", cfg.intervals);
      cfg.interval_s = spec.numberFor("interval-s", cfg.interval_s);
      cfg.cluster_radius = spec.intFor("radius", cfg.cluster_radius);
      cfg.mean_holding_s = spec.numberFor("holding", cfg.mean_holding_s);
      cfg.require_coverage =
          spec.intFor("coverage", cfg.require_coverage ? 1 : 0) != 0;
      cfg.rebuild_every = spec.intFor("rebuild", cfg.rebuild_every);
      cfg.reach = spec.intFor("reach", cfg.reach);
      try {
        validateConfig(cfg);  // fail at parse time, not mid-run
      } catch (const std::invalid_argument& e) {
        throw cellular::PolicySpecError(std::string{"policy 'scc': "} +
                                        e.what());
      }
      return [cfg](const cellular::HexNetwork& net) {
        return std::make_unique<ShadowClusterController>(net, cfg);
      };
    }};

}  // namespace

}  // namespace facs::scc
