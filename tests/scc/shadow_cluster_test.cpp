#include "scc/shadow_cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "cellular/policy_registry.hpp"
#include "sim/detmath.hpp"
#include "sim/scenario_catalog.hpp"
#include "sim/simulator.hpp"

namespace facs::scc {
namespace {

using cellular::AdmissionContext;
using cellular::CallRequest;
using cellular::HexNetwork;
using cellular::ServiceClass;
using cellular::UserSnapshot;
using cellular::Vec2;

CallRequest makeRequest(cellular::CallId id, ServiceClass service,
                        Vec2 position, double speed, double angle,
                        cellular::CellId cell) {
  CallRequest r;
  r.call = id;
  r.user = id;
  r.service = service;
  r.demand_bu = cellular::profileFor(service).demand_bu;
  r.snapshot.position = position;
  r.snapshot.speed_kmh = speed;
  r.snapshot.angle_deg = angle;
  r.snapshot.distance_km = position.norm();
  r.target_cell = cell;
  return r;
}

TEST(MotionFromSnapshot, InvertsAngleConvention) {
  UserSnapshot s;
  s.position = {-2.0, 0.0};
  s.speed_kmh = 36.0;
  s.angle_deg = 0.0;  // heading straight at the station
  const mobility::MotionState m = motionFromSnapshot(s, {0.0, 0.0});
  EXPECT_NEAR(m.heading_deg, 0.0, 1e-9);  // bearing to origin is 0 (east)

  s.angle_deg = 90.0;  // station 90 deg right of travel -> heading north
  EXPECT_NEAR(motionFromSnapshot(s, {0.0, 0.0}).heading_deg, 90.0, 1e-9);

  s.angle_deg = 180.0;  // directly away -> heading west
  EXPECT_NEAR(std::abs(motionFromSnapshot(s, {0.0, 0.0}).heading_deg), 180.0,
              1e-9);
}

TEST(ShadowCluster, ConfigValidation) {
  const HexNetwork net{1};
  SccConfig bad;
  bad.intervals = 0;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad.intervals = kMaxIntervals + 1;  // the demand cache is cells x intervals
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad.intervals = kMaxIntervals;
  EXPECT_EQ(ShadowClusterController(net, bad).projectedDemand(0).size(),
            static_cast<std::size_t>(kMaxIntervals));
  bad = {};
  bad.interval_s = 0.0;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad.interval_s = 1e308;  // 3 intervals: the horizon overflows to inf
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  // A finite horizon is capped too: past kMaxHorizonS every projection
  // leaves coverage and SCC would block every call.
  bad.intervals = 1;
  bad.interval_s = kMaxHorizonS;
  EXPECT_NO_THROW(ShadowClusterController(net, bad));
  bad.interval_s = std::nextafter(kMaxHorizonS, 2 * kMaxHorizonS);
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad.intervals = 4;
  bad.interval_s = kMaxHorizonS / 4;
  EXPECT_NO_THROW(ShadowClusterController(net, bad));
  bad.interval_s = 1e308;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad = {};
  bad.threshold = 0.0;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad = {};
  bad.cluster_radius = -1;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad = {};
  bad.sigma_base_km = 0.0;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad = {};
  bad.mean_holding_s = 0.0;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad = {};
  bad.rebuild_every = -1;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
}

TEST(ShadowCluster, EmptyNetworkAcceptsFirstCall) {
  const HexNetwork net{1};
  ShadowClusterController scc{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  const auto d =
      scc.decide(makeRequest(1, ServiceClass::Video, {1.0, 0.0}, 50.0, 0.0, 0),
                 ctx);
  EXPECT_TRUE(d.accept);
  EXPECT_GT(d.score, 0.0);
}

TEST(ShadowCluster, TracksAdmittedCallsAndReleases) {
  const HexNetwork net{1};
  ShadowClusterController scc{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  const CallRequest r =
      makeRequest(1, ServiceClass::Voice, {1.0, 0.0}, 50.0, 0.0, 0);
  EXPECT_EQ(scc.trackedCalls(), 0u);
  scc.onAdmitted(r, ctx);
  EXPECT_EQ(scc.trackedCalls(), 1u);
  scc.onReleased(r, ctx);
  EXPECT_EQ(scc.trackedCalls(), 0u);
}

TEST(ShadowCluster, ProjectedDemandDecaysOverHorizon) {
  const HexNetwork net{1};
  SccConfig cfg;
  cfg.intervals = 4;
  ShadowClusterController scc{net, cfg};
  const AdmissionContext ctx{net.station(0), 0.0};
  // A stationary video call in the centre cell.
  scc.onAdmitted(makeRequest(1, ServiceClass::Video, {0.5, 0.0}, 0.0, 0.0, 0),
                 ctx);
  const DemandProfile p = scc.projectedDemand(0);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_GT(p[0], 5.0);  // most of the 10 BU projected for the near future
  for (std::size_t k = 1; k < p.size(); ++k) {
    EXPECT_LT(p[k], p[k - 1]) << "no decay at interval " << k;
  }
}

TEST(ShadowCluster, MovingCallShadowsTheDownstreamCell) {
  const HexNetwork net{1, 10.0};
  SccConfig cfg;
  cfg.intervals = 3;
  cfg.interval_s = 120.0;
  cfg.mean_holding_s = 1e6;  // isolate the spatial projection
  ShadowClusterController scc{net, cfg};
  const AdmissionContext ctx{net.station(0), 0.0};

  // Fast call heading due east out of the centre cell. Ring cells are laid
  // out from the SW corner, so the eastern neighbour (axial +1,0) is id 3
  // and the western one (axial -1,0) is id 6.
  const cellular::CellId east = 3;
  const cellular::CellId west = 6;
  ASSERT_EQ(net.cell(east).coord, (cellular::HexCoord{1, 0}));
  ASSERT_EQ(net.cell(west).coord, (cellular::HexCoord{-1, 0}));
  CallRequest r = makeRequest(1, ServiceClass::Video, {5.0, 0.0}, 120.0,
                              /*angle=*/180.0, 0);  // away from BS0 = east
  scc.onAdmitted(r, ctx);

  const DemandProfile east_profile = scc.projectedDemand(east);
  const DemandProfile west_profile = scc.projectedDemand(west);
  // The eastern neighbour sees a growing shadow; the western one almost none.
  EXPECT_GT(east_profile.back(), west_profile.back() + 0.5);
}

TEST(ShadowCluster, SaturatedProjectionRejects) {
  const HexNetwork net{0};  // single 40 BU cell
  SccConfig cfg;
  cfg.cluster_radius = 0;
  cfg.mean_holding_s = 1e6;  // no decay: projections stay at full demand
  cfg.sigma_base_km = 2.0;
  ShadowClusterController scc{net, cfg};
  const AdmissionContext ctx{net.station(0), 0.0};

  // Fill the projection with four stationary 10-BU calls near the BS.
  for (cellular::CallId id = 1; id <= 4; ++id) {
    const auto r = makeRequest(id, ServiceClass::Video,
                               {0.1 * static_cast<double>(id), 0.0}, 0.0, 0.0, 0);
    EXPECT_TRUE(scc.decide(r, ctx).accept) << "call " << id;
    scc.onAdmitted(r, ctx);
  }
  // The fifth video call no longer fits the projected budget.
  const auto r5 =
      makeRequest(5, ServiceClass::Video, {0.5, 0.0}, 0.0, 0.0, 0);
  EXPECT_FALSE(scc.decide(r5, ctx).accept);
}

TEST(ShadowCluster, ThresholdScalesBudget) {
  const HexNetwork net{0};
  SccConfig tight;
  tight.cluster_radius = 0;
  tight.mean_holding_s = 1e6;
  tight.threshold = 0.45;  // only 18 BU of projected budget
  ShadowClusterController scc{net, tight};
  const AdmissionContext ctx{net.station(0), 0.0};

  const auto r1 = makeRequest(1, ServiceClass::Video, {0.2, 0.0}, 0.0, 0.0, 0);
  EXPECT_TRUE(scc.decide(r1, ctx).accept);
  scc.onAdmitted(r1, ctx);
  const auto r2 = makeRequest(2, ServiceClass::Video, {0.3, 0.0}, 0.0, 0.0, 0);
  EXPECT_FALSE(scc.decide(r2, ctx).accept);  // 20 BU budget already shadowed
}

TEST(ShadowCluster, HardCapacityStillEnforced) {
  HexNetwork net{0};
  SccConfig cfg;
  cfg.cluster_radius = 0;
  cfg.mean_holding_s = 1.0;  // decays so fast the projection sees room
  cfg.interval_s = 60.0;
  ShadowClusterController scc{net, cfg};
  net.station(0).allocate(99, 35, true);
  const AdmissionContext ctx{net.station(0), 0.0};
  const auto r = makeRequest(1, ServiceClass::Video, {0.5, 0.0}, 0.0, 0.0, 0);
  // Projection may look fine, but only 5 BU are actually free.
  EXPECT_FALSE(scc.decide(r, ctx).accept);
}

TEST(ShadowCluster, NameIsScc) {
  const HexNetwork net{0};
  ShadowClusterController scc{net};
  EXPECT_EQ(scc.name(), "SCC");
}

// ---------------------------------------------------------------------------
// Incremental demand cache: the per-(cell, interval) accumulators updated on
// arrival/departure/handoff must track the set of live shadows exactly.
// ---------------------------------------------------------------------------

TEST(ShadowCluster, DemandCacheDrainsToZeroOnRelease) {
  const HexNetwork net{1};
  ShadowClusterController scc{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  std::vector<CallRequest> admitted;
  for (cellular::CallId id = 1; id <= 8; ++id) {
    const auto r = makeRequest(id, ServiceClass::Voice,
                               {0.5 * static_cast<double>(id), 1.0}, 40.0,
                               30.0, 0);
    scc.onAdmitted(r, ctx);
    admitted.push_back(r);
  }
  for (const CallRequest& r : admitted) scc.onReleased(r, ctx);
  EXPECT_EQ(scc.trackedCalls(), 0u);
  for (const cellular::Cell& cell : net.cells()) {
    for (const double d : scc.projectedDemand(cell.id)) {
      // Floating subtraction of the exact contributions that were added:
      // residue is rounding noise (a few ULPs of the peak sum), never
      // leaked demand. Long-lived churn is bounded exactly by the periodic
      // rebuild (PeriodicRebuildZeroesChurnResidue below).
      EXPECT_NEAR(d, 0.0, 1e-12) << "cell " << cell.id;
    }
  }
}

TEST(ShadowCluster, PeriodicRebuildZeroesChurnResidue) {
  // Overlapping churn: calls are admitted three at a time and released in
  // admission order, so each release subtracts its contribution from a sum
  // that still holds the others. Re-associated float sums leave a residue
  // that a lone admit/release pair (a - a == 0 exactly) never would. The
  // rebuild runs in the hook whose update reaches rebuild_every: until
  // then both controllers hold the same residue bit for bit; the 600th
  // update, the last release, then recomputes the rows from the empty
  // shadow set — EXACTLY zero, where the controller that never rebuilds
  // keeps the residue.
  const HexNetwork net{1};
  SccConfig with_rebuild;
  with_rebuild.rebuild_every = 600;
  SccConfig without_rebuild = with_rebuild;
  without_rebuild.rebuild_every = 0;
  ShadowClusterController rebuilt{net, with_rebuild};
  ShadowClusterController incremental{net, without_rebuild};
  const AdmissionContext ctx{net.station(0), 0.0};
  const auto churn = [&](int from_cycle, int to_cycle) {
    for (ShadowClusterController* scc : {&rebuilt, &incremental}) {
      for (int cycle = from_cycle; cycle < to_cycle; ++cycle) {  // 6 updates
        std::vector<CallRequest> batch;
        for (int j = 0; j < 3; ++j) {
          const int n = 3 * cycle + j;
          batch.push_back(makeRequest(
              1 + static_cast<cellular::CallId>(n), ServiceClass::Video,
              {0.5 + 0.01 * (n % 100), 1.0 - 0.02 * (n % 50)},
              10.0 + (n % 60), static_cast<double>((n * 37) % 360 - 180), 0));
        }
        for (const CallRequest& r : batch) scc->onAdmitted(r, ctx);
        for (const CallRequest& r : batch) scc->onReleased(r, ctx);
      }
      EXPECT_EQ(scc->trackedCalls(), 0u);
    }
  };

  churn(0, 99);  // 594 updates: no rebuild yet
  for (const cellular::Cell& cell : net.cells()) {
    const DemandProfile a = rebuilt.projectedDemand(cell.id);
    const DemandProfile b = incremental.projectedDemand(cell.id);
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k], b[k]) << "rebuilt early: cell " << cell.id;
    }
  }

  churn(99, 100);  // updates 595..600: the last release rebuilds
  double kept = 0.0;
  for (const cellular::Cell& cell : net.cells()) {
    for (const double d : rebuilt.projectedDemand(cell.id)) {
      EXPECT_EQ(d, 0.0) << "cell " << cell.id;
    }
    for (const double d : incremental.projectedDemand(cell.id)) {
      kept = std::max(kept, std::abs(d));
    }
  }
  EXPECT_GT(kept, 0.0) << "the churn left no residue to clear";
}

TEST(ShadowCluster, RebuildPreservesLiveShadows) {
  // The exact rebuild must be invisible to decisions: a controller with
  // aggressive rebuilds agrees with one that never rebuilds to rounding
  // noise, and the keeper's demand survives the churn around it.
  const HexNetwork net{2};
  for (const int reach : {0, 1}) {
    SccConfig with_rebuild;
    with_rebuild.reach = reach;
    with_rebuild.rebuild_every = 8;
    SccConfig without_rebuild = with_rebuild;
    without_rebuild.rebuild_every = 0;
    ShadowClusterController rebuilt{net, with_rebuild};
    ShadowClusterController incremental{net, without_rebuild};

    const auto keeper = makeRequest(1000, ServiceClass::Video,
                                    net.cell(4).center, 50.0, 70.0, 4);
    rebuilt.onAdmitted(keeper, AdmissionContext{net.station(4), 0.0});
    incremental.onAdmitted(keeper, AdmissionContext{net.station(4), 0.0});
    for (int cycle = 0; cycle < 30; ++cycle) {  // crosses several periods
      const cellular::CellId anchor =
          static_cast<cellular::CellId>(cycle % 19);
      const auto churn = makeRequest(
          1 + static_cast<cellular::CallId>(cycle), ServiceClass::Voice,
          net.cell(anchor).center + Vec2{0.1, 0.1}, 20.0, 0.0, anchor);
      const AdmissionContext ctx{net.station(anchor), 1.0 * cycle};
      rebuilt.onAdmitted(churn, ctx);
      incremental.onAdmitted(churn, ctx);
      rebuilt.onReleased(churn, ctx);
      incremental.onReleased(churn, ctx);
    }
    EXPECT_EQ(rebuilt.trackedCalls(), 1u);
    for (const cellular::Cell& cell : net.cells()) {
      const DemandProfile a = rebuilt.projectedDemand(cell.id);
      const DemandProfile b = incremental.projectedDemand(cell.id);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_NEAR(a[k], b[k], 1e-9)
            << "reach " << reach << " cell " << cell.id << " k " << k;
      }
    }
  }
}

TEST(ShadowCluster, DemandCacheMatchesFreshControllerAfterChurn) {
  // Admit/release churn plus a handoff refresh must leave the accumulators
  // where a fresh controller tracking only the survivors would put them.
  const HexNetwork net{1};
  ShadowClusterController churned{net};
  const AdmissionContext ctx0{net.station(0), 0.0};

  const auto keeper =
      makeRequest(1, ServiceClass::Video, {2.0, 0.0}, 60.0, 45.0, 0);
  const auto churn =
      makeRequest(2, ServiceClass::Voice, {1.0, 1.0}, 20.0, 0.0, 0);
  churned.onAdmitted(keeper, ctx0);
  churned.onAdmitted(churn, ctx0);
  churned.onReleased(churn, ctx0);
  // Handoff: the same call re-admitted from a new cell with new kinematics
  // replaces its shadow instead of stacking a second one.
  auto moved = makeRequest(1, ServiceClass::Video, {4.0, 2.0}, 60.0, -30.0, 3);
  moved.is_handoff = true;
  churned.onAdmitted(moved, AdmissionContext{net.station(3), 90.0});
  EXPECT_EQ(churned.trackedCalls(), 1u);

  ShadowClusterController fresh{net};
  fresh.onAdmitted(moved, AdmissionContext{net.station(3), 90.0});

  for (const cellular::Cell& cell : net.cells()) {
    const DemandProfile a = churned.projectedDemand(cell.id);
    const DemandProfile b = fresh.projectedDemand(cell.id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 1e-9) << "cell " << cell.id << " k " << k;
    }
  }
}

TEST(ShadowCluster, DecisionsMatchCacheState) {
  // decide() must read the same demand the cache reports: fill a tight
  // single-cell controller to its threshold and verify the flip point
  // coincides with the accumulated profile crossing the budget.
  const HexNetwork net{0};
  SccConfig cfg;
  cfg.cluster_radius = 0;
  cfg.mean_holding_s = 1e6;
  cfg.sigma_base_km = 2.0;
  ShadowClusterController scc{net, cfg};
  const AdmissionContext ctx{net.station(0), 0.0};
  cellular::CallId id = 1;
  while (scc.decide(makeRequest(id, ServiceClass::Video, {0.2, 0.0}, 0.0, 0.0,
                                0),
                    ctx)
             .accept) {
    scc.onAdmitted(makeRequest(id, ServiceClass::Video, {0.2, 0.0}, 0.0, 0.0,
                               0),
                   ctx);
    ++id;
    ASSERT_LT(id, 100) << "SCC never saturated";
  }
  const double budget =
      cfg.threshold * static_cast<double>(net.station(0).capacityBu());
  const DemandProfile profile = scc.projectedDemand(0);
  // The rejection happened because one more 10 BU shadow would overflow:
  // the cached near-term demand must already sit within 10 BU of budget.
  EXPECT_GT(profile[0] + 10.0, budget);
  EXPECT_LE(profile[0], budget + 1e-9);
}

TEST(ShadowCluster, BoundedReachLocalizesTheAccounting) {
  // rings = 2: the disk spans hex distance 2 from the centre. reach = 1
  // keeps a centre-anchored shadow out of ring-2 accumulators entirely,
  // while the unbounded controller leaks its kernel's tail everywhere.
  const HexNetwork net{2};
  SccConfig bounded_cfg;
  bounded_cfg.reach = 1;
  ShadowClusterController bounded{net, bounded_cfg};
  ShadowClusterController unbounded{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  const CallRequest r =
      makeRequest(1, ServiceClass::Video, {0.5, 0.0}, 0.0, 0.0, 0);
  bounded.onAdmitted(r, ctx);
  unbounded.onAdmitted(r, ctx);

  // Ring-2 cells (ids 7..18 in the spiral layout) stay untouched under the
  // bounded reach; the unbounded accumulation reaches them.
  const DemandProfile far_bounded = bounded.projectedDemand(8);
  const DemandProfile far_unbounded = unbounded.projectedDemand(8);
  for (const double d : far_bounded) EXPECT_EQ(d, 0.0);
  EXPECT_GT(far_unbounded[0], 0.0);

  // Inside the footprint both controllers account the identical value —
  // bounding the reach truncates, it does not redistribute.
  EXPECT_EQ(bounded.projectedDemand(0)[0], unbounded.projectedDemand(0)[0]);
  EXPECT_EQ(bounded.projectedDemand(1)[0], unbounded.projectedDemand(1)[0]);

  // Releases retract through the same footprint: everything returns to
  // exactly zero.
  bounded.onReleased(r, ctx);
  for (cellular::CellId c = 0; c < net.cellCount(); ++c) {
    for (const double d : bounded.projectedDemand(c)) EXPECT_EQ(d, 0.0);
  }
}

TEST(ShadowCluster, ReachSpanningTheDiskMatchesUnbounded) {
  // reach >= the disk diameter touches every cell, so the bounded and
  // unbounded controllers are the same model bit for bit.
  const HexNetwork net{1};
  SccConfig wide_cfg;
  wide_cfg.reach = 4;
  ShadowClusterController wide{net, wide_cfg};
  ShadowClusterController unbounded{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  for (int i = 1; i <= 6; ++i) {
    const CallRequest r = makeRequest(
        static_cast<cellular::CallId>(i), ServiceClass::Voice,
        {0.3 * i, 0.1 * i}, 20.0 * i, 15.0 * i, 0);
    wide.onAdmitted(r, ctx);
    unbounded.onAdmitted(r, ctx);
  }
  for (cellular::CellId c = 0; c < net.cellCount(); ++c) {
    const DemandProfile a = wide.projectedDemand(c);
    const DemandProfile b = unbounded.projectedDemand(c);
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k], b[k]) << "cell " << c << " interval " << k;
    }
  }
}

/// The shadow kernel as a per-call formula: heading, activity decay and
/// 2 sigma^2 recomputed on every (cell, interval). The controller hoists
/// everything but the distance out of that loop; its sums must not move.
double referenceContribution(const SccConfig& cfg, const HexNetwork& net,
                             const mobility::MotionState& state,
                             double demand_bu, cellular::CellId cell, int k) {
  const double mid_of_interval_s = (k + 0.5) * cfg.interval_s;
  const double p_active =
      detmath::exp(-mid_of_interval_s / cfg.mean_holding_s);
  const Vec2 predicted =
      state.position_km + cellular::headingVector(state.heading_deg) *
                              (state.speed_kmh / 3600.0 * mid_of_interval_s);
  const double sigma_km = cfg.sigma_base_km + cfg.sigma_growth_km * k;
  const Vec2 d = predicted - net.cell(cell).center;
  const double spatial =
      detmath::exp(-(d.x * d.x + d.y * d.y) / (2.0 * sigma_km * sigma_km));
  return demand_bu * p_active * spatial;
}

TEST(ShadowCluster, KernelIsBitIdenticalToThePerCallFormula) {
  // A scripted admit / handoff refresh / release sequence. Every row then
  // holds the reference terms summed in step order (a retract before its
  // re-cast).
  const HexNetwork net{2};
  struct Step {
    cellular::CallId call;
    cellular::CellId cell;
    double speed_kmh;
    double angle_deg;
    enum { Admit, Refresh, Release } kind;
  };
  const std::vector<Step> script{
      {1, 0, 45.0, 30.0, Step::Admit},     {2, 4, 80.0, -100.0, Step::Admit},
      {3, 11, 15.0, 170.0, Step::Admit},   {4, 17, 60.0, 75.0, Step::Admit},
      {2, 4, 90.0, -60.0, Step::Refresh},  {1, 0, 45.0, 30.0, Step::Release},
      {5, 8, 120.0, 10.0, Step::Admit},    {4, 17, 20.0, -5.0, Step::Refresh},
      {3, 11, 15.0, 170.0, Step::Release},
  };
  for (const int reach : {0, 2}) {
    SccConfig cfg;
    cfg.reach = reach;
    ShadowClusterController scc{net, cfg};
    std::vector<double> expected(net.cellCount() * 3, 0.0);
    std::map<cellular::CallId, CallRequest> live;
    const auto apply = [&](const CallRequest& r, double sign) {
      const mobility::MotionState state =
          motionFromSnapshot(r.snapshot, net.cell(r.target_cell).center);
      for (const cellular::CellId cell : scc.footprint(r.target_cell)) {
        for (int k = 0; k < 3; ++k) {
          expected[static_cast<std::size_t>(cell) * 3 + k] +=
              sign * referenceContribution(
                         cfg, net, state,
                         static_cast<double>(r.demand_bu), cell, k);
        }
      }
    };
    for (const Step& step : script) {
      CallRequest r = makeRequest(
          step.call, ServiceClass::Video,
          net.cell(step.cell).center + Vec2{0.35, -0.2}, step.speed_kmh,
          step.angle_deg, step.cell);
      const AdmissionContext ctx{net.station(step.cell), 0.0};
      if (step.kind == Step::Release) {
        scc.onReleased(r, ctx);
        apply(live.at(step.call), -1.0);
        live.erase(step.call);
      } else {
        r.is_handoff = step.kind == Step::Refresh;
        scc.onAdmitted(r, ctx);
        if (r.is_handoff) apply(live.at(step.call), -1.0);
        apply(r, +1.0);
        live[step.call] = r;
      }
    }
    for (const cellular::Cell& cell : net.cells()) {
      const DemandProfile got = scc.projectedDemand(cell.id);
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(got[static_cast<std::size_t>(k)],
                  expected[static_cast<std::size_t>(cell.id) * 3 + k])
            << "reach " << reach << " cell " << cell.id << " k " << k;
      }
    }

    // decide(): the worst headroom over the probe's cluster, from the
    // same rows plus the probe's own reference shadow.
    const CallRequest probe = makeRequest(
        99, ServiceClass::Video, net.cell(0).center + Vec2{-0.5, 0.25},
        35.0, 60.0, 0);
    const mobility::MotionState state =
        motionFromSnapshot(probe.snapshot, net.cell(0).center);
    double worst = std::numeric_limits<double>::infinity();
    for (const cellular::Cell& cell : net.cells()) {
      if (cellular::hexDistance(cell.coord, net.cell(0).coord) >
          cfg.cluster_radius) {
        continue;
      }
      const double budget =
          cfg.threshold *
          static_cast<double>(net.station(cell.id).capacityBu());
      for (int k = 0; k < 3; ++k) {
        const double projected =
            expected[static_cast<std::size_t>(cell.id) * 3 + k] +
            referenceContribution(cfg, net, state,
                                  static_cast<double>(probe.demand_bu),
                                  cell.id, k);
        worst = std::min(worst, budget - projected);
      }
    }
    const double budget =
        cfg.threshold * static_cast<double>(net.station(0).capacityBu());
    const auto d = scc.decide(probe, AdmissionContext{net.station(0), 0.0});
    EXPECT_EQ(d.score, std::clamp(worst / budget, -1.0, 1.0))
        << "reach " << reach;
  }
}

// ---------------------------------------------------------------------------
// The reach-sizing audit.
// ---------------------------------------------------------------------------

TEST(ShadowCluster, AuditWorkloadFlagsAnUndersizedReach) {
  const HexNetwork net{1, 2.0};
  cellular::WorkloadEnvelope fast;
  fast.v_max_kmh = 130.0;
  fast.cell_radius_km = 2.0;
  // 130 km/h over the default 90 s horizon is ~3.25 km — within one hex
  // pitch (sqrt(3) x 2 km), so the required reach is 2: reach=1 is
  // undersized, reach=2 is sound.
  SccConfig small;
  small.reach = 1;
  const std::string warning =
      ShadowClusterController(net, small).auditWorkload(fast);
  EXPECT_NE(warning.find("reach=1"), std::string::npos) << warning;
  EXPECT_NE(warning.find(">= 2"), std::string::npos) << warning;
  SccConfig sound;
  sound.reach = 2;
  EXPECT_TRUE(ShadowClusterController(net, sound).auditWorkload(fast).empty());
  // Unbounded accounting has no footprint to undersize; an empty envelope
  // gives no basis to audit.
  EXPECT_TRUE(ShadowClusterController(net).auditWorkload(fast).empty());
  EXPECT_TRUE(ShadowClusterController(net, small)
                  .auditWorkload(cellular::WorkloadEnvelope{})
                  .empty());
}

/// A horizon far past the calls' lifetime, or past the time the fastest
/// mobile stays in coverage, is flagged; the defaults are not.
TEST(ShadowCluster, AuditWorkloadFlagsAHorizonPastHoldingOrCoverage) {
  const HexNetwork net{1, 2.0};
  cellular::WorkloadEnvelope highway;
  highway.v_max_kmh = 130.0;
  highway.cell_radius_km = 2.0;
  EXPECT_TRUE(ShadowClusterController(net).auditWorkload(highway).empty());

  // A day-long horizon: both checks fire, on one line.
  SccConfig day;
  day.intervals = 1;
  day.interval_s = 86'400.0;
  const std::string both =
      ShadowClusterController(net, day).auditWorkload(highway);
  EXPECT_NE(both.find("mean holding time"), std::string::npos) << both;
  EXPECT_NE(both.find("cross the coverage"), std::string::npos) << both;
  EXPECT_EQ(both.find('\n'), std::string::npos) << both;

  // Past 4 holding times but well inside one coverage crossing: the
  // 7-cell coverage is ~10.9 km across, 302 s at 130 km/h.
  SccConfig long_lived;
  long_lived.intervals = 5;
  long_lived.interval_s = 30.0;
  long_lived.mean_holding_s = 30.0;
  const std::string holding =
      ShadowClusterController(net, long_lived).auditWorkload(highway);
  EXPECT_NE(holding.find("mean holding time"), std::string::npos) << holding;
  EXPECT_EQ(holding.find("cross the coverage"), std::string::npos) << holding;
  // The holding check needs no envelope.
  EXPECT_FALSE(ShadowClusterController(net, long_lived)
                   .auditWorkload(cellular::WorkloadEnvelope{})
                   .empty());

  // Inside the holding bound, past 4 crossings (1211 s).
  SccConfig far;
  far.intervals = 10;
  far.interval_s = 125.0;
  far.mean_holding_s = 1000.0;
  const std::string coverage =
      ShadowClusterController(net, far).auditWorkload(highway);
  EXPECT_EQ(coverage.find("mean holding time"), std::string::npos)
      << coverage;
  EXPECT_NE(coverage.find("cross the coverage"), std::string::npos)
      << coverage;
  far.interval_s = 120.0;  // 1200 s: just inside
  EXPECT_TRUE(ShadowClusterController(net, far).auditWorkload(highway).empty());
}

/// The engine counts the audit into policy_warnings, which toJson prints.
TEST(ShadowCluster, DayLongHorizonCountsAPolicyWarning) {
  const sim::Metrics m = sim::runSimulation(
      sim::ScenarioCatalog::builtins().at("highway").config,
      cellular::PolicyRuntime::defaultRuntime().makeFactory(
          "scc:intervals=1,interval-s=86400"));
  EXPECT_EQ(m.policy_warnings, 1);
  EXPECT_NE(m.toJson().find("\"policy_warnings\": 1"), std::string::npos);
}

TEST(ShadowCluster, ReachSpecKeyAndValidation) {
  EXPECT_THROW(
      (void)ShadowClusterController(HexNetwork{1}, [] {
        SccConfig c;
        c.reach = -1;
        return c;
      }()),
      std::invalid_argument);
  // The registry spec wires reach through, and rejects bad values at
  // parse time.
  const auto& runtime = cellular::PolicyRuntime::defaultRuntime();
  const HexNetwork net{1};
  auto controller = runtime.makeFactory("scc:reach=2")(net);
  EXPECT_EQ(controller->name(), "SCC");
  EXPECT_THROW((void)runtime.makeFactory("scc:reach=-3"),
               cellular::PolicySpecError);
}

}  // namespace
}  // namespace facs::scc
