#include "sim/erlang.hpp"

#include <gtest/gtest.h>

#include "cac/baselines.hpp"
#include "sim/simulator.hpp"

namespace facs::sim {
namespace {

TEST(ErlangB, KnownValues) {
  // Classic teletraffic table entries.
  EXPECT_NEAR(erlangB(1, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(erlangB(2, 1.0), 0.2, 1e-12);
  EXPECT_NEAR(erlangB(5, 3.0), 0.11005, 1e-4);
  EXPECT_NEAR(erlangB(10, 7.0), 0.07874, 1e-4);
  EXPECT_NEAR(erlangB(40, 30.0), 0.01441, 2e-4);
}

TEST(ErlangB, EdgeCases) {
  EXPECT_DOUBLE_EQ(erlangB(0, 5.0), 1.0);   // no servers: everything blocks
  EXPECT_DOUBLE_EQ(erlangB(10, 0.0), 0.0);  // no traffic: nothing blocks
  EXPECT_THROW((void)erlangB(-1, 1.0), std::invalid_argument);
  EXPECT_THROW((void)erlangB(1, -1.0), std::invalid_argument);
}

TEST(ErlangB, MonotoneInServersAndLoad) {
  for (int c = 1; c < 30; ++c) {
    EXPECT_LT(erlangB(c + 1, 10.0), erlangB(c, 10.0));
  }
  for (double a = 1.0; a < 30.0; a += 1.0) {
    EXPECT_GT(erlangB(10, a + 1.0), erlangB(10, a));
  }
}

TEST(SimulatorValidation, ConvergesToErlangB) {
  SimulationConfig cfg;
  cfg.capacity_bu = 10;       // c = 10 servers (1 BU calls)
  cfg.total_requests = 12000;
  cfg.arrivals = ArrivalProcess::Poisson;
  cfg.scenario.mix = cellular::TrafficMix{1.0, 0.0, 0.0};  // text only, 1 BU
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  cfg.seed = 77;

  // Offered load a = lambda * holding = 7 erlangs with holding 120 s.
  const double holding_s = cellular::profileFor(cellular::ServiceClass::Text)
                               .mean_holding_s;
  const double offered = 7.0;
  cfg.arrival_window_s =
      cfg.total_requests * holding_s / offered;  // sets lambda
  cfg.warmup_s = 10.0 * holding_s;               // skip the fill-up transient

  const Metrics m = runSimulation(cfg, [](const cellular::HexNetwork&) {
    return std::make_unique<cac::CompleteSharingController>();
  });

  const double theory = erlangB(10, offered);  // ~0.0787
  EXPECT_NEAR(m.blockingProbability(), theory, 0.015);
  // Carried load check: utilization = a (1 - B) / c.
  EXPECT_NEAR(m.meanUtilization(), offered * (1.0 - theory) / 10.0, 0.03);
}

}  // namespace
}  // namespace facs::sim
