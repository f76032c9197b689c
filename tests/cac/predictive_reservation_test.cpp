#include "cac/predictive_reservation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <vector>

namespace facs::cac {
namespace {

using cellular::AdmissionContext;
using cellular::CallRequest;
using cellular::CellId;
using cellular::HexNetwork;
using cellular::ServiceClass;
using cellular::Vec2;

CallRequest request(cellular::CallId id, ServiceClass service, Vec2 position,
                    double speed, double angle, CellId cell,
                    bool handoff = false) {
  CallRequest r;
  r.call = id;
  r.service = service;
  r.demand_bu = cellular::profileFor(service).demand_bu;
  r.snapshot.position = position;
  r.snapshot.speed_kmh = speed;
  r.snapshot.angle_deg = angle;
  r.snapshot.distance_km = position.norm();
  r.target_cell = cell;
  r.is_handoff = handoff;
  return r;
}

TEST(PredictiveReservation, ValidatesConfig) {
  const HexNetwork net{1};
  PredictiveReservationConfig bad;
  bad.reservation_fraction = 1.5;
  EXPECT_THROW(PredictiveReservationController(net, bad),
               std::invalid_argument);
  bad = {};
  bad.min_speed_kmh = -1.0;
  EXPECT_THROW(PredictiveReservationController(net, bad),
               std::invalid_argument);
}

TEST(PredictiveReservation, PredictsDownstreamCell) {
  const HexNetwork net{1, 10.0};
  PredictiveReservationController ctl{net};
  // User in the centre cell heading due east (angle 180: away from BS0
  // toward the eastern neighbour, cell id 3 at axial +1,0).
  cellular::UserSnapshot east_bound;
  east_bound.position = {5.0, 0.0};
  east_bound.speed_kmh = 100.0;
  east_bound.angle_deg = 180.0;
  const auto next = ctl.predictNextCell(east_bound, 0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 3u);

  // A slow walker gets no reservation.
  east_bound.speed_kmh = 4.0;
  EXPECT_FALSE(ctl.predictNextCell(east_bound, 0).has_value());

  // Heading straight at the BS, the user flies through the cell and is
  // predicted to emerge in the western neighbour (id 6) — pass-through is
  // a real handoff and deserves its reservation.
  cellular::UserSnapshot inbound;
  inbound.position = {5.0, 0.0};
  inbound.speed_kmh = 100.0;
  inbound.angle_deg = 0.0;
  const auto through = ctl.predictNextCell(inbound, 0);
  ASSERT_TRUE(through.has_value());
  EXPECT_EQ(*through, 6u);

  // A user in the eastern border cell heading further east leaves
  // coverage before reaching any cell: no reservation target exists.
  cellular::UserSnapshot outbound;
  outbound.position = net.cell(3).center + Vec2{2.0, 0.0};
  outbound.speed_kmh = 100.0;
  outbound.angle_deg = 180.0;  // away from BS3 = further east
  EXPECT_FALSE(ctl.predictNextCell(outbound, 3).has_value());
}

TEST(PredictiveReservation, AdmissionCreatesAndReleasesReservation) {
  const HexNetwork net{1, 10.0};
  PredictiveReservationController ctl{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  const CallRequest r =
      request(1, ServiceClass::Video, {5.0, 0.0}, 100.0, 180.0, 0);
  EXPECT_DOUBLE_EQ(ctl.reservedBu(3), 0.0);
  ctl.onAdmitted(r, ctx);
  EXPECT_DOUBLE_EQ(ctl.reservedBu(3), 5.0);  // 0.5 x 10 BU
  ctl.onReleased(r, ctx);
  EXPECT_DOUBLE_EQ(ctl.reservedBu(3), 0.0);
}

TEST(PredictiveReservation, NewCallsBlockedByReservations) {
  HexNetwork net{1, 10.0};
  PredictiveReservationController ctl{net};
  // Six fast eastbound video calls in the centre reserve 6 x 5 = 30 BU in
  // cell 3.
  for (cellular::CallId id = 1; id <= 6; ++id) {
    ctl.onAdmitted(request(id, ServiceClass::Video, {5.0, 0.0}, 100.0, 180.0,
                           0),
                   {net.station(0), 0.0});
  }
  EXPECT_DOUBLE_EQ(ctl.reservedBu(3), 30.0);

  // Cell 3 already carries 5 BU: 35 free, but only 5 usable by new calls.
  net.station(3).allocate(99, 5, true);
  const AdmissionContext ctx3{net.station(3), 0.0};
  const auto video =
      request(50, ServiceClass::Video, net.cell(3).center, 4.0, 0.0, 3);
  const auto voice =
      request(51, ServiceClass::Voice, net.cell(3).center, 4.0, 0.0, 3);
  EXPECT_FALSE(ctl.decide(video, ctx3).accept);  // 10 > 5 usable
  EXPECT_TRUE(ctl.decide(voice, ctx3).accept);   // 5 <= 5 usable

  // A handoff may consume the reserved headroom.
  auto ho = video;
  ho.is_handoff = true;
  EXPECT_TRUE(ctl.decide(ho, ctx3).accept);
}

TEST(PredictiveReservation, HandoffRefreshesReservation) {
  const HexNetwork net{2, 10.0};
  PredictiveReservationController ctl{net};
  CallRequest r =
      request(1, ServiceClass::Voice, {5.0, 0.0}, 100.0, 180.0, 0);
  ctl.onAdmitted(r, {net.station(0), 0.0});
  const double before = ctl.reservedBu(3);
  EXPECT_GT(before, 0.0);

  // The call hands into cell 3 and keeps heading east: reservation moves
  // out of cell 3 into the next ring.
  r.is_handoff = true;
  r.target_cell = 3;
  r.snapshot.position = net.cell(3).center + cellular::Vec2{2.0, 0.0};
  r.snapshot.angle_deg = 180.0;
  ctl.onAdmitted(r, {net.station(3), 0.0});
  EXPECT_DOUBLE_EQ(ctl.reservedBu(3), 0.0);
}

TEST(PredictiveReservation, ZeroFractionDegeneratesToCompleteSharing) {
  const HexNetwork net{1};
  PredictiveReservationConfig cfg;
  cfg.reservation_fraction = 0.0;
  PredictiveReservationController ctl{net, cfg};
  ctl.onAdmitted(request(1, ServiceClass::Video, {5.0, 0.0}, 100.0, 180.0, 0),
                 {net.station(0), 0.0});
  EXPECT_DOUBLE_EQ(ctl.reservedBu(3), 0.0);
  const AdmissionContext ctx{net.station(0), 0.0};
  EXPECT_TRUE(
      ctl.decide(request(2, ServiceClass::Video, {1.0, 0.0}, 4.0, 0.0, 0), ctx)
          .accept);
}

TEST(PredictiveReservation, BooksDrainToZeroOnceEveryCallIsGone) {
  // The engine's hook sequence: new admissions, handoffs (with no release
  // of the old cell — the refresh replaces the record), dropped handoffs
  // and departures. No cell's reservation ever goes negative, and none is
  // left once every call is gone.
  const HexNetwork net{2, 10.0};
  PredictiveReservationController ctl{net};

  std::mt19937 gen{20240917};
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  const auto snapshotIn = [&](CellId cell) {
    cellular::UserSnapshot snap;
    snap.position = net.cell(cell).center +
                    Vec2{8.0 * unit(gen) - 4.0, 8.0 * unit(gen) - 4.0};
    snap.speed_kmh = 20.0 + 80.0 * unit(gen);
    snap.angle_deg = 360.0 * unit(gen) - 180.0;
    return snap;
  };

  std::vector<CallRequest> live;
  cellular::CallId next_id = 1;
  int handoffs = 0;
  double peak = 0.0;

  for (int window = 0; window < 40; ++window) {
    for (int k = 0; k < 6; ++k) {
      const auto cell = static_cast<CellId>(gen() % net.cellCount());
      CallRequest r;
      r.call = next_id++;
      r.service = unit(gen) < 0.5 ? ServiceClass::Voice : ServiceClass::Video;
      r.demand_bu = cellular::profileFor(r.service).demand_bu;
      r.snapshot = snapshotIn(cell);
      r.target_cell = cell;
      ctl.onAdmitted(r, {net.station(cell), 0.0});
      live.push_back(r);
    }
    // Each live call moves at most once per window, as in the engine.
    for (std::size_t i = 0; i < live.size();) {
      CallRequest& r = live[i];
      const double roll = unit(gen);
      if (roll < 0.15) {  // departs from its cell
        ctl.onReleased(r, {net.station(r.target_cell), 0.0});
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      if (roll < 0.55) {  // hands off to a neighbour
        const auto& around = net.neighbors(r.target_cell);
        const CellId to = around[gen() % around.size()];
        if (unit(gen) < 0.2) {  // dropped: the old cell releases it
          ctl.onReleased(r, {net.station(r.target_cell), 0.0});
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        ++handoffs;
        r.is_handoff = true;
        r.target_cell = to;
        r.snapshot = snapshotIn(to);
        ctl.onAdmitted(r, {net.station(to), 0.0});
      }
      ++i;
    }
    for (CellId c = 0; c < net.cellCount(); ++c) {
      ASSERT_GE(ctl.reservedBu(c), 0.0) << "cell " << c;
      peak = std::max(peak, ctl.reservedBu(c));
    }
  }
  EXPECT_GT(handoffs, 0);
  EXPECT_GT(peak, 0.0);

  for (const CallRequest& r : live) {
    ctl.onReleased(r, {net.station(r.target_cell), 0.0});
  }
  for (CellId c = 0; c < net.cellCount(); ++c) {
    EXPECT_NEAR(ctl.reservedBu(c), 0.0, 1e-9) << "cell " << c;
  }
}

TEST(PredictiveReservation, Name) {
  const HexNetwork net{0};
  PredictiveReservationController ctl{net};
  EXPECT_EQ(ctl.name(), "PredictiveRsv");
}

}  // namespace
}  // namespace facs::cac
