/// Cross-module integration tests: the full GPS -> FLC1 -> FLC2 -> ledger
/// pipeline under every policy, accounting invariants, failure injection,
/// and cheap versions of the paper's headline claims so regressions in any
/// module show up as broken figure shapes.

#include <gtest/gtest.h>

#include "cac/baselines.hpp"
#include "core/facs.hpp"
#include "fuzzy/fdl.hpp"
#include "scc/shadow_cluster.hpp"
#include "sim/experiment.hpp"

namespace facs {
namespace {

using sim::ControllerFactory;
using sim::Metrics;
using sim::SimulationConfig;

SimulationConfig fastConfig(int requests, std::uint64_t seed = 21) {
  SimulationConfig cfg;
  cfg.total_requests = requests;
  cfg.seed = seed;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  return cfg;
}

std::vector<std::pair<std::string, ControllerFactory>> allPolicies() {
  std::vector<std::pair<std::string, ControllerFactory>> out;
  out.emplace_back("FACS", [](const cellular::HexNetwork&) {
    return std::make_unique<core::FacsController>();
  });
  out.emplace_back("CS", [](const cellular::HexNetwork&) {
    return std::make_unique<cac::CompleteSharingController>();
  });
  out.emplace_back("Guard", [](const cellular::HexNetwork&) {
    return std::make_unique<cac::GuardChannelController>(8);
  });
  out.emplace_back("MultiThr", [](const cellular::HexNetwork&) {
    return std::make_unique<cac::MultiThresholdController>(
        std::array<cellular::BandwidthUnits, 3>{38, 30, 20});
  });
  out.emplace_back("SCC", [](const cellular::HexNetwork& net) {
    return std::make_unique<scc::ShadowClusterController>(net);
  });
  return out;
}

TEST(EndToEnd, AccountingInvariantsHoldForEveryPolicy) {
  for (const auto& [name, factory] : allPolicies()) {
    SimulationConfig cfg = fastConfig(120);
    cfg.rings = 1;  // give SCC a real cluster
    const Metrics m = sim::runSimulation(cfg, factory);
    EXPECT_EQ(m.new_requests, 120) << name;
    EXPECT_EQ(m.new_requests, m.new_accepted + m.new_blocked) << name;
    EXPECT_EQ(m.completed, m.new_accepted) << name;  // no handoffs enabled
    EXPECT_GE(m.percentAccepted(), 0.0) << name;
    EXPECT_LE(m.percentAccepted(), 100.0) << name;
    EXPECT_LE(m.meanUtilization(), 1.0 + 1e-9) << name;
    int per_class = 0;
    for (const int c : m.class_requests) per_class += c;
    EXPECT_EQ(per_class, m.new_requests) << name;
  }
}

TEST(EndToEnd, HandoffAccountingHoldsForEveryPolicy) {
  for (const auto& [name, factory] : allPolicies()) {
    SimulationConfig cfg = fastConfig(80);
    cfg.rings = 1;
    cfg.cell_radius_km = 2.0;
    cfg.enable_handoffs = true;
    cfg.mobility_update_s = 5.0;
    cfg.scenario.speed_min_kmh = 50.0;
    cfg.scenario.speed_max_kmh = 120.0;
    cfg.scenario.distance_max_km = 2.0;
    const Metrics m = sim::runSimulation(cfg, factory);
    EXPECT_EQ(m.handoff_requests, m.handoff_accepted + m.handoff_dropped)
        << name;
    // Every admitted call either completed or was dropped at a handoff.
    EXPECT_EQ(m.new_accepted, m.completed + m.handoff_dropped) << name;
  }
}

/// Failure injection: a policy that throws mid-run must not corrupt the
/// simulation silently — the exception surfaces to the caller.
class ThrowingController final : public cellular::AdmissionController {
 public:
  explicit ThrowingController(int fuse) : fuse_{fuse} {}
  [[nodiscard]] std::string name() const override { return "Throwing"; }
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest&, const cellular::AdmissionContext&) override {
    if (--fuse_ <= 0) throw std::runtime_error("controller exploded");
    return {true, cellular::ReasonCode::Admitted, 1.0, "ok"};
  }

 private:
  int fuse_;
};

TEST(EndToEnd, ControllerExceptionPropagates) {
  const SimulationConfig cfg = fastConfig(30);
  EXPECT_THROW((void)sim::runSimulation(cfg,
                                        [](const cellular::HexNetwork&) {
                                          return std::make_unique<
                                              ThrowingController>(10);
                                        }),
               std::runtime_error);
}

/// Failure injection: a policy whose accepts never fit must end up with
/// zero admissions but intact accounting (the simulator's backstop).
class LyingController final : public cellular::AdmissionController {
 public:
  [[nodiscard]] std::string name() const override { return "Liar"; }
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override {
    // Accept exactly when it does NOT fit.
    return {!context.station.canFit(request.demand_bu),
            cellular::ReasonCode::Admitted, 0.0, "lie"};
  }
};

TEST(EndToEnd, LyingControllerCannotCorruptLedger) {
  const Metrics m = sim::runSimulation(
      fastConfig(100), [](const cellular::HexNetwork&) {
        return std::make_unique<LyingController>();
      });
  EXPECT_EQ(m.new_accepted, 0);  // empty cell: every "accept" was a lie
  EXPECT_EQ(m.new_blocked, 100);
  EXPECT_DOUBLE_EQ(m.meanUtilization(), 0.0);
}

// ---------------------------------------------------------------------------
// Cheap paper-shape regression check for Fig. 10 (Figs. 7-9 are checked
// with confidence intervals in tests/sim/paper_shape_test.cpp).
// ---------------------------------------------------------------------------

double meanAcceptance(const SimulationConfig& base, int requests,
                      const ControllerFactory& factory, int reps = 3) {
  sim::RunningStat stat;
  for (int r = 0; r < reps; ++r) {
    SimulationConfig cfg = base;
    cfg.total_requests = requests;
    cfg.seed = 1000 + static_cast<std::uint64_t>(r);
    stat.add(sim::runSimulation(cfg, factory).percentAccepted());
  }
  return stat.mean();
}

ControllerFactory facsFactory() {
  return [](const cellular::HexNetwork&) {
    return std::make_unique<core::FacsController>();
  };
}

TEST(PaperShapes, Fig10CrossoverDirection) {
  SimulationConfig base;
  base.rings = 1;
  base.scenario = sim::fig10Scenario();
  base.arrival_window_s = 600.0 / 7.0;
  scc::SccConfig scc_cfg;
  scc_cfg.threshold = 0.85;
  scc_cfg.sigma_growth_km = 0.0;
  const ControllerFactory scc_factory =
      [scc_cfg](const cellular::HexNetwork& net) {
        return std::make_unique<scc::ShadowClusterController>(net, scc_cfg);
      };
  // Light load: FACS >= SCC. Heavy load: SCC >= FACS.
  const double facs_light = meanAcceptance(base, 20, facsFactory(), 5);
  const double scc_light = meanAcceptance(base, 20, scc_factory, 5);
  const double facs_heavy = meanAcceptance(base, 100, facsFactory(), 5);
  const double scc_heavy = meanAcceptance(base, 100, scc_factory, 5);
  EXPECT_GE(facs_light, scc_light - 1.0);
  EXPECT_GE(scc_heavy, facs_heavy - 1.0);
}

/// The two FACS engines round-trip through FDL with identical behaviour —
/// the serialized controllers are faithful artefacts.
TEST(EndToEnd, FacsEnginesRoundTripThroughFdl) {
  const core::FacsController facs;
  const fuzzy::MamdaniEngine flc1 = fuzzy::parseFdl(fuzzy::toFdl(facs.flc1()));
  const fuzzy::MamdaniEngine flc2 = fuzzy::parseFdl(fuzzy::toFdl(facs.flc2()));
  for (double s = 0.0; s <= 120.0; s += 30.0) {
    for (double a = -180.0; a <= 180.0; a += 60.0) {
      const std::array<double, 3> in1{s, a, 5.0};
      EXPECT_DOUBLE_EQ(flc1.infer(in1), facs.flc1().infer(in1));
    }
  }
  for (double cv = 0.0; cv <= 1.0; cv += 0.25) {
    for (double cs = 0.0; cs <= 40.0; cs += 10.0) {
      const std::array<double, 3> in2{cv, 5.0, cs};
      EXPECT_DOUBLE_EQ(flc2.infer(in2), facs.flc2().infer(in2));
    }
  }
}

}  // namespace
}  // namespace facs
