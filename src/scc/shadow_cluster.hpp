#pragma once
/// \file shadow_cluster.hpp
/// The Shadow Cluster Concept (SCC) baseline, re-implemented from
/// D. A. Levine, I. F. Akyildiz, M. Naghshineh, "A Resource Estimation and
/// Call Admission Algorithm for Wireless Multimedia Networks Using the
/// Shadow Cluster Concept", IEEE/ACM ToN 5(1), 1997 — the comparison system
/// of the paper's Section 2 and Fig. 10.
///
/// Every active mobile exerts a probabilistic "shadow" over nearby cells:
/// for each future interval k the controller projects where the mobile will
/// be (from its last known position and velocity), spreads that prediction
/// over cells with a Gauss kernel whose width grows with the horizon,
/// and discounts by the probability the call is still active. Base stations
/// sum these shadows into projected demand per interval and admit a new
/// call only if, with the caller's own tentative shadow cluster added,
/// projected demand stays within the survivability threshold everywhere in
/// the cluster for the whole horizon.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cellular/admission.hpp"
#include "cellular/network.hpp"
#include "mobility/model.hpp"

namespace facs::scc {

/// Upper bound on SccConfig::intervals. The demand cache holds cells x
/// intervals doubles, so an unbounded count is an allocation failure, not
/// a longer horizon.
inline constexpr int kMaxIntervals = 1000;

/// Upper bound, in seconds, on the projection horizon intervals *
/// interval_s: one day. A shadow projected past the end of coverage blocks
/// its call, so a horizon far beyond any call's lifetime (a typo such as
/// interval-s=1e308) would silently turn SCC into "block everything"
/// instead of failing.
inline constexpr double kMaxHorizonS = 86'400.0;

/// auditWorkload() warns when the projection horizon exceeds this many
/// mean holding times, or this many times the time the fastest mobile
/// takes to cross the coverage. Either way the later intervals project
/// nothing useful, and past coverage they block calls.
inline constexpr double kHorizonAuditFactor = 4.0;

/// Tunables of the shadow-cluster algorithm.
struct SccConfig {
  /// Number of future intervals projected (the horizon is
  /// intervals * interval_s seconds, at most kMaxHorizonS). In
  /// [1, kMaxIntervals].
  int intervals = 3;
  /// Interval length in seconds.
  double interval_s = 30.0;
  /// Survivability threshold: projected demand in every cluster cell must
  /// stay below threshold * capacity for the call to be admitted.
  double threshold = 1.0;
  /// Grid radius (hops) of a shadow cluster around its centre cell.
  int cluster_radius = 1;
  /// Base spatial spread of the position prediction (km); grows linearly
  /// with the projection interval index. Should be of the order of the
  /// cell radius — a mobile anywhere in a cell shadows that cell's BS, and
  /// mobiles near borders shadow the neighbour too (which is what makes
  /// the scheme's per-BS accumulation over-reserve, as in the original).
  double sigma_base_km = 8.0;
  double sigma_growth_km = 2.0;
  /// Mean call holding time used for the activity decay exp(-t / holding).
  double mean_holding_s = 180.0;
  /// Periodic exact rebuild of the incremental demand cache: the
  /// onAdmitted() or onReleased() whose shadow updates (each admit,
  /// release, or handoff-refresh leg is one) reach this count since the
  /// last rebuild ends by recomputing every per-(cell, interval)
  /// accumulator from the live shadows in canonical call order.
  /// Subtract-on-release leaves ~1e-12 BU of floating residue per churn
  /// cycle; the rebuild zeroes it, bounding the drift forever on
  /// long-lived runs. 0 disables. The amortized cost is
  /// O(tracked * cells * intervals / rebuild_every) per update —
  /// negligible at the default.
  int rebuild_every = 1'000'000;
  /// Deny calls whose predicted trajectory leaves network coverage within
  /// the horizon: their shadow cluster cannot be established, so their QoS
  /// cannot be guaranteed (the admission criterion of the original
  /// algorithm). Disable for single-cell studies where everything
  /// eventually "leaves".
  bool require_coverage = true;
  /// Shadow accounting footprint in cell hops around the shadow's anchor
  /// (the cell of its last report). 0 (default) = unbounded: every update
  /// touches every cell's accumulator — the historical behaviour at
  /// O(cells x intervals) per update. A positive reach bounds each update
  /// (and the periodic rebuild) to the cells within that many hops, so the
  /// cost becomes flat in the network size.
  ///
  /// Size it to the projection horizon, not to the kernel's spread: the
  /// footprint is anchored at the LAST-REPORT cell, but contribution()
  /// centres each interval's kernel on the call's PREDICTED position —
  /// up to speed x (intervals x interval_s) ahead of the anchor. A reach
  /// smaller than that projected distance (in cell hops) cuts off the
  /// cells the mobile is headed for, silently disabling the predictive
  /// reservation for fast traffic — the bulk of the demand, not a tail.
  /// reach >= ceil(v_max * horizon / cell_pitch) + a hop for the spread
  /// keeps only the kernel's far tails out; anything less is a knowingly
  /// more myopic model. Spec key: reach=N.
  int reach = 0;
};

/// Projected bandwidth demand for one cell over the horizon.
using DemandProfile = std::vector<double>;  // index = interval k

/// SCC admission controller over a hexagonal network.
///
/// The controller reconstructs each mobile's velocity vector from the
/// admission-time UserSnapshot (position + speed + angle relative to the
/// target base station); a production SCC would refresh these via the
/// inter-BS message system the paper describes, which a later snapshot
/// update through onAdmitted() of the next handoff approximates.
///
/// Demand bookkeeping is incremental: every base station keeps a running
/// per-interval sum of the shadows currently cast over it, updated on call
/// arrival (onAdmitted), departure (onReleased) and handoff (the refreshing
/// onAdmitted), exactly like the original scheme's BS-side accumulation of
/// mobiles' probability vectors. decide() therefore reads projected demand
/// as an O(cluster x intervals) lookup — flat in the number of tracked
/// calls — instead of re-integrating every shadow per decision. Each
/// shadow's projection is anchored at its last report (admission or
/// handoff), which is when the original algorithm's messages update it.
class ShadowClusterController final : public cellular::AdmissionController {
 public:
  /// \param network the cell layout (not owned; must outlive the controller).
  ShadowClusterController(const cellular::HexNetwork& network,
                          SccConfig config = {});

  [[nodiscard]] std::string name() const override { return "SCC"; }

  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override;

  void onAdmitted(const cellular::CallRequest& request,
                  const cellular::AdmissionContext& context) override;
  void onReleased(const cellular::CallRequest& request,
                  const cellular::AdmissionContext& context) override;

  /// Warns when a bounded reach is smaller than the projection horizon of
  /// the fastest mobile needs: the footprint is anchored at the LAST
  /// report, but contribution() centres each interval's kernel on the
  /// PREDICTED position — an undersized reach cuts off the cells the
  /// mobile is headed for, silently disabling predictive reservation for
  /// fast traffic (the SccConfig::reach footgun, now audited).
  /// Also warns when the horizon is more than kHorizonAuditFactor mean
  /// holding times, or coverage crossings of a v_max mobile, long. Several
  /// warnings share the one line, separated by "; ".
  [[nodiscard]] std::string auditWorkload(
      const cellular::WorkloadEnvelope& envelope) const override;

  /// Projected demand profile of one cell from all currently tracked
  /// mobiles (exposed for tests and the operator-dashboard example). An
  /// O(intervals) copy of the incremental cache; each shadow's projection
  /// is anchored at its last report.
  [[nodiscard]] DemandProfile projectedDemand(cellular::CellId cell) const;

  /// Number of mobiles currently exerting a shadow.
  [[nodiscard]] std::size_t trackedCalls() const noexcept {
    return shadows_.size();
  }

  [[nodiscard]] const SccConfig& config() const noexcept { return config_; }

  /// Cells one shadow anchored at \p anchor may touch: all of them at
  /// reach = 0, the precomputed <= reach-hop neighbourhood otherwise.
  [[nodiscard]] const std::vector<cellular::CellId>& footprint(
      cellular::CellId anchor) const;

 private:
  /// Per-call shadow source: last reported kinematics + demand, anchored
  /// at the cell of the last report (admission or handoff refresh) — the
  /// centre of its accounting footprint when reach bounds it. `heading` is
  /// headingVector(state.heading_deg), computed once by shadowOf() rather
  /// than once per (cell, interval) the shadow touches.
  struct Shadow {
    mobility::MotionState state;
    cellular::Vec2 heading;
    double demand_bu = 0.0;
    cellular::CellId anchor = 0;
  };

  /// The cell-independent terms of interval k's kernel, fixed by the
  /// config: the interval midpoint, the activity decay exp(-mid / holding)
  /// and the kernel's 2 sigma^2.
  struct Horizon {
    double mid_s = 0.0;
    double p_active = 0.0;
    double two_sigma_sq = 0.0;
  };

  /// The shadow \p request casts from \p center, the cell its snapshot
  /// is taken against and the shadow's anchor.
  [[nodiscard]] Shadow shadowOf(const cellular::CallRequest& request,
                                cellular::CellId center) const;

  /// Probability-weighted demand contribution of one shadow to one cell at
  /// interval k, anchored at the shadow's capture instant.
  [[nodiscard]] double contribution(const Shadow& shadow,
                                    cellular::CellId cell, int k) const;

  /// Adds (sign +1) or retracts (sign -1) one shadow's contribution over
  /// its footprint — the incremental cache update. Counts one update
  /// toward the rebuild period.
  void applyShadow(const Shadow& shadow, double sign);

  /// The exact rebuild, once the update count reaches rebuild_every: every
  /// row zeroed and recomputed from the tracked shadows in canonical call
  /// order — exactly what the incremental updates accumulated, minus the
  /// float residue. Called only where shadows_ matches demand_.
  void maybeRebuild();

  [[nodiscard]] std::size_t demandIndex(cellular::CellId cell,
                                        int k) const noexcept {
    return static_cast<std::size_t>(cell) *
               static_cast<std::size_t>(config_.intervals) +
           static_cast<std::size_t>(k);
  }

  [[nodiscard]] double demandAt(cellular::CellId cell, int k) const noexcept {
    return demand_[demandIndex(cell, k)];
  }

  const cellular::HexNetwork& network_;
  SccConfig config_;
  /// One entry per interval k, built by the constructor.
  std::vector<Horizon> horizon_;
  /// Running per-(cell, interval) demand sums over all tracked shadows —
  /// what each BS would hold after accumulating every mobile's probability
  /// vector. Row-major: cell * intervals + k.
  std::vector<double> demand_;
  /// Precomputed cluster membership (cells within cluster_radius), so the
  /// decide() hot path never allocates.
  std::vector<std::vector<cellular::CellId>> clusters_;
  /// Precomputed accounting footprints (cells within reach hops), indexed
  /// by anchor cell; empty when reach == 0 (unbounded accounting) — then
  /// footprint() answers with all_cells_.
  std::vector<std::vector<cellular::CellId>> footprints_;
  std::vector<cellular::CellId> all_cells_;
  /// Every tracked shadow, by call.
  std::unordered_map<cellular::CallId, Shadow> shadows_;
  /// Shadow updates since the last exact rebuild.
  std::uint64_t updates_since_rebuild_ = 0;
};

/// Reconstructs a mobile's motion state from an admission snapshot taken
/// relative to \p station_position (heading = bearing-to-BS + angle).
[[nodiscard]] mobility::MotionState motionFromSnapshot(
    const cellular::UserSnapshot& snapshot,
    cellular::Vec2 station_position) noexcept;

}  // namespace facs::scc
