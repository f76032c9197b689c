#include "cellular/radio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sim/rng.hpp"

namespace facs::cellular {
namespace {

TEST(DbHelpers, RoundTrips) {
  EXPECT_NEAR(dbToLinear(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dbToLinear(10.0), 10.0, 1e-12);
  EXPECT_NEAR(dbToLinear(-30.0), 0.001, 1e-12);
  EXPECT_NEAR(linearToDb(100.0), 20.0, 1e-12);
  for (double db = -120.0; db <= 50.0; db += 10.0) {
    EXPECT_NEAR(linearToDb(dbToLinear(db)), db, 1e-9);
  }
}

TEST(PathLoss, ReferencePointAndSlope) {
  PathLossParams p;
  p.reference_loss_db = 128.1;
  p.reference_distance_km = 1.0;
  EXPECT_NEAR(pathLossDb(p, 1.0), 128.1, 1e-12);
  // One decade of distance adds 10 n = 35 dB.
  EXPECT_NEAR(pathLossDb(p, 10.0) - pathLossDb(p, 1.0), 35.0, 1e-9);
  // The reference distance shifts the curve, not its slope.
  p.reference_distance_km = 0.1;
  EXPECT_NEAR(pathLossDb(p, 0.1), 128.1, 1e-12);
  EXPECT_NEAR(pathLossDb(p, 1.0), 128.1 + 35.0, 1e-9);
  // Monotone in distance.
  double prev = 0.0;
  for (double d = 0.05; d <= 20.0; d += 0.5) {
    const double loss = pathLossDb(p, d);
    EXPECT_GT(loss, prev);
    prev = loss;
  }
}

TEST(PathLoss, ClampsNearFieldAndRejectsNegative) {
  PathLossParams p;
  EXPECT_DOUBLE_EQ(pathLossDb(p, 0.0), pathLossDb(p, p.min_distance_km));
  EXPECT_THROW((void)pathLossDb(p, -1.0), std::invalid_argument);
}

TEST(RadioModel, ValidatesConfig) {
  const HexNetwork net{0};
  RadioConfig bad;
  bad.activity_factor = 1.5;
  EXPECT_THROW(RadioModel(net, bad), std::invalid_argument);
  bad = {};
  bad.path_loss.min_distance_km = 0.0;
  EXPECT_THROW(RadioModel(net, bad), std::invalid_argument);
}

TEST(RadioModel, LinkBudgetFallsWithDistance) {
  // A lone idle cell: SINR is the SNR, Prx - noise floor.
  const HexNetwork net{0};
  const RadioModel radio{net};
  EXPECT_GT(radio.sinrDb({0.5, 0.0}, 0), radio.sinrDb({8.0, 0.0}, 0));
  // Sanity: 43 dBm through the default 100 dB reference loss at 1 km.
  EXPECT_NEAR(radio.sinrDb({1.0, 0.0}, 0),
              43.0 - 100.0 - radio.config().noise_floor_dbm, 1e-9);
  // The 10 km cell edge keeps a usable noise-limited link budget.
  EXPECT_GT(radio.sinrDb({10.0, 0.0}, 0), 10.0);
}

TEST(RadioModel, IdleNetworkIsNoiseLimited) {
  const HexNetwork net{1};
  const RadioModel radio{net};
  // No cell carries traffic: SINR = SNR = tx - PL(d) - noise floor.
  const RadioConfig& rc = radio.config();
  const double sinr = radio.sinrDb({1.0, 0.0}, 0);
  const double snr = rc.tx_power_dbm - pathLossDb(rc.path_loss, 1.0) -
                     rc.noise_floor_dbm;
  EXPECT_NEAR(sinr, snr, 1e-9);
}

TEST(RadioModel, LoadedNeighborDegradesSinr) {
  HexNetwork net{1};
  const RadioModel radio{net};
  const Vec2 user{6.0, 0.0};  // toward the eastern neighbour
  const double quiet = radio.sinrDb(user, 0);
  net.station(3).allocate(1, 40, true);  // east cell fully loaded
  const double loud = radio.sinrDb(user, 0);
  EXPECT_LT(loud, quiet - 3.0);  // several dB of co-channel interference
}

TEST(RadioModel, SinrDegradesGraduallyWithNeighborUtilization) {
  HexNetwork net{1};
  const RadioModel radio{net};
  const Vec2 user{6.0, 0.0};
  double prev = radio.sinrDb(user, 0);
  for (const BandwidthUnits bu : {10, 20, 30, 40}) {
    HexNetwork fresh{1};
    fresh.station(3).allocate(1, bu, true);
    const RadioModel r2{fresh};
    const double sinr = r2.sinrDb(user, 0);
    EXPECT_LT(sinr, prev);
    prev = sinr;
  }
}

TEST(RadioModel, CellEdgeIsWorseThanCellCentre) {
  HexNetwork net{1};
  // All neighbours half loaded.
  for (CellId id = 1; id < 7; ++id) net.station(id).allocate(id, 20, true);
  const RadioModel radio{net};
  EXPECT_GT(radio.sinrDb({0.5, 0.0}, 0), radio.sinrDb({8.0, 0.0}, 0));
}

// ---------------------------------------------- gain tables & footprint --

/// Loads every station with a different partial utilization so no
/// interferer drops out of the sum and no two cells look alike.
void loadStations(HexNetwork& net) {
  CallId call = 1;
  for (const Cell& c : net.cells()) {
    const BandwidthUnits bu =
        1 + static_cast<BandwidthUnits>((c.id * 7) % 29);
    net.station(c.id).allocate(call++, bu, true);
  }
}

TEST(RadioModel, GainTableWalkMatchesScalarReferenceBitForBit) {
  // The precomputed-table sinrDb must produce the SAME floating-point sum
  // as a naive ascending-id walk of the factored gain-constant formula
  // power_mw = C * d^-3.5, with d^-3.5 = 1 / (d^2 q sqrt(q)), q = sqrt(d^2):
  // the table layout may not move a single bit.
  HexNetwork net{2, 1.5};
  loadStations(net);
  const RadioModel radio{net};
  const RadioConfig& rc = radio.config();
  const PathLossParams& pl = rc.path_loss;
  const double gain_c =
      dbToLinear(rc.tx_power_dbm - pl.reference_loss_db +
                 10.0 * kPathLossExponent *
                     std::log10(pl.reference_distance_km));
  const double min_d2 = pl.min_distance_km * pl.min_distance_km;
  const auto link_mw = [&](Vec2 pos, CellId cell) {
    const double dx = pos.x - net.cell(cell).center.x;
    const double dy = pos.y - net.cell(cell).center.y;
    const double d2 = std::max(dx * dx + dy * dy, min_d2);
    const double q = std::sqrt(d2);
    return gain_c * (1.0 / (d2 * q * std::sqrt(q)));
  };
  for (const Cell& serving : net.cells()) {
    const Vec2 pos{serving.center.x + 0.4, serving.center.y - 0.3};
    double interference = dbToLinear(rc.noise_floor_dbm);
    for (const Cell& other : net.cells()) {
      if (other.id == serving.id) continue;
      const double activity =
          rc.activity_factor * net.station(other.id).utilization();
      if (activity <= 0.0) continue;
      interference += activity * link_mw(pos, other.id);
    }
    const double reference =
        linearToDb(link_mw(pos, serving.id) / interference);
    EXPECT_EQ(radio.sinrDb(pos, serving.id), reference)
        << "serving=" << serving.id;
    // And the log-domain chain agrees to numerical noise: factoring out
    // the gain constant and the closed-form power is a reformulation, not a
    // model change.
    double legacy_i = dbToLinear(rc.noise_floor_dbm);
    for (const Cell& other : net.cells()) {
      if (other.id == serving.id) continue;
      const double activity =
          rc.activity_factor * net.station(other.id).utilization();
      if (activity <= 0.0) continue;
      legacy_i += activity *
                  dbToLinear(rc.tx_power_dbm -
                             pathLossDb(pl, net.distanceToStationKm(pos, other.id)));
    }
    const double legacy = linearToDb(
        dbToLinear(rc.tx_power_dbm -
                   pathLossDb(pl, net.distanceToStationKm(pos, serving.id))) /
        legacy_i);
    EXPECT_NEAR(radio.sinrDb(pos, serving.id), legacy, 1e-9)
        << "serving=" << serving.id;
  }
}

TEST(PathGain, WithinFiveAndAHalfUlpOfTheExactPower) {
  // Squared distances from the near-field clamp to twice the diameter of
  // a 19-cell network of the paper's 10 km cells, log-uniformly, so each
  // binade is sampled alike.
  const HexNetwork net{2};
  double diameter = 0.0;
  for (const Cell& a : net.cells()) {
    for (const Cell& b : net.cells()) {
      diameter = std::max(diameter, a.center.distanceTo(b.center));
    }
  }
  diameter += 2.0 * net.cellRadiusKm();
  const double min_d = PathLossParams{}.min_distance_km;
  const double lo = std::log(min_d * min_d);
  const double hi = std::log(4.0 * diameter * diameter);
  sim::Rng rng = sim::makeRng(9);
  double worst = 0.0;
  for (int i = 0; i < 200'000; ++i) {
    const double d2 = std::exp(sim::sampleUniform(rng, lo, hi));
    const long double exact =
        std::pow(static_cast<long double>(d2), -kPathLossExponent / 2.0L);
    int e = 0;
    (void)std::frexp(static_cast<double>(exact), &e);
    const long double ulp = std::ldexp(1.0L, e - 53);
    worst = std::max(
        worst, static_cast<double>(
                   std::fabs(static_cast<long double>(pathGain(d2)) - exact) /
                   ulp));
  }
  // Five roundings, each within 2^-53 relative: q's error enters the
  // denominator 1.5 times (in q and in sqrt(q)), the other four once, so
  // the result is within 5.5 * 2^-53 relative, at most 5.5 ulp. The
  // measured maximum is 3.9 ulp over these samples and 4.4 ulp over
  // 6 million more.
  EXPECT_LE(worst, 5.5);
  EXPECT_EQ(pathGain(1.0), 1.0);
  EXPECT_EQ(pathGain(16.0), 1.0 / 128.0);  // 4^-3.5, exact
}

}  // namespace
}  // namespace facs::cellular
