/// \file mover_horizon_test.cpp
/// The bound behind the mover sweep's safe-step horizon
/// (src/sim/simulator.cpp): after a home step at distance d from its
/// cell's centre, a call with constant step length L owes the next
/// HexNetwork::movesInside() steps instead of running them, because none
/// of them can leave the cell's inscribed circle. The property test walks
/// every allowed step, on every cell of a 2-ring network, and checks the
/// call is still home; the engine cases that pin the deferral's outputs
/// live in golden_digest_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "cellular/network.hpp"
#include "mobility/model.hpp"
#include "sim/rng.hpp"

namespace facs::sim {
namespace {

using cellular::HexNetwork;
using cellular::Vec2;
using mobility::MotionState;
using mobility::SpeedDependentTurn;

TEST(MoverHorizon, EveryAllowedStepStaysHome) {
  const HexNetwork net{2, 0.4};
  const double r = net.cellRadiusKm();
  Rng rng = makeRng(2026, 0);
  for (const cellular::Cell& cell : net.cells()) {
    for (int trial = 0; trial < 100; ++trial) {
      MotionState s;
      do {  // a uniform point of the cell's circumscribed square, kept if home
        s.position_km = cell.center + Vec2{sampleUniform(rng, -r, r),
                                           sampleUniform(rng, -r, r)};
      } while (net.cellAt(s.position_km) != cell.id);
      s.speed_kmh = trial % 8 == 0 ? 0.0 : sampleUniform(rng, 0.0, 150.0);
      s.heading_deg = sampleUniform(rng, -180.0, 180.0);
      const double period = trial % 3 == 0 ? 0.7 : 5.0;
      const std::uint32_t k = net.movesInside(
          cell.id, s.position_km, SpeedDependentTurn::stepKm(s, period));
      // A parked user's horizon runs to ~1e9 steps: walk a prefix of it.
      const std::uint32_t walk = std::min<std::uint32_t>(k, 5000);
      SpeedDependentTurn model;
      for (std::uint32_t i = 0; i < walk; ++i) {
        model.step(s, period, rng);
        ASSERT_EQ(net.cellAt(s.position_km), cell.id)
            << "cell " << cell.id << " trial " << trial << " step " << i
            << " of " << k;
      }
    }
  }
}

TEST(MoverHorizon, HorizonIsTightOnAStraightWalkToAnEdge) {
  const HexNetwork net{0, 1.0};
  const double inscribed = 1.0 * std::sqrt(3.0) / 2.0;
  MotionState s;  // at the centre, heading at the midpoint of an edge
  s.speed_kmh = inscribed / 10.0 * 3600.0;
  const double step = SpeedDependentTurn::stepKm(s, 1.0);
  EXPECT_EQ(net.movesInside(0, s.position_km, step), 9u);
  SpeedDependentTurn straight{{.sigma_max_deg = 0.0}};
  Rng rng = makeRng(1, 0);
  for (int i = 0; i < 9; ++i) straight.step(s, 1.0, rng);
  EXPECT_EQ(net.cellAt(s.position_km), 0u);
  straight.step(s, 1.0, rng);
  straight.step(s, 1.0, rng);
  EXPECT_FALSE(net.cellAt(s.position_km));  // two more steps leave
  // A point outside the inscribed circle has no horizon at all.
  EXPECT_EQ(net.movesInside(0, Vec2{0.0, 0.95}, 0.0), 0u);
  EXPECT_GT(net.movesInside(0, Vec2{}, 0.0), 100'000'000u);  // parked
}

}  // namespace
}  // namespace facs::sim
