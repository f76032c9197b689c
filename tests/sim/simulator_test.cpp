#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "cac/baselines.hpp"
#include "core/facs.hpp"
#include "scc/shadow_cluster.hpp"
#include "serve/mutation.hpp"
#include "run_policy.hpp"

namespace facs::sim {
namespace {

ControllerFactory completeSharing() {
  return [](const cellular::HexNetwork&) {
    return std::make_unique<cac::CompleteSharingController>();
  };
}

ControllerFactory facsFactory() {
  return [](const cellular::HexNetwork&) {
    return std::make_unique<core::FacsController>();
  };
}

/// Test policy that rejects everything.
class RejectAll final : public cellular::AdmissionController {
 public:
  [[nodiscard]] std::string name() const override { return "RejectAll"; }
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest&, const cellular::AdmissionContext&) override {
    return {false, cellular::ReasonCode::NoCapacity, -1.0, "no"};
  }
};

/// Test policy that accepts blindly (the simulator must still protect the
/// ledger's capacity invariant).
class AcceptAll final : public cellular::AdmissionController {
 public:
  [[nodiscard]] std::string name() const override { return "AcceptAll"; }
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest&, const cellular::AdmissionContext&) override {
    return {true, cellular::ReasonCode::Admitted, 1.0, "yes"};
  }
};

SimulationConfig lightConfig(int requests) {
  SimulationConfig cfg;
  cfg.total_requests = requests;
  cfg.seed = 7;
  cfg.scenario.tracking_window_s = 0.0;  // fast runs for structural tests
  cfg.scenario.gps_error_m.reset();
  return cfg;
}

TEST(Simulator, ValidatesConfig) {
  SimulationConfig bad = lightConfig(5);
  bad.total_requests = -1;
  EXPECT_THROW((void)runSimulation(bad, completeSharing()),
               std::invalid_argument);
  bad = lightConfig(5);
  bad.arrival_window_s = 0.0;
  EXPECT_THROW((void)runSimulation(bad, completeSharing()),
               std::invalid_argument);
  bad = lightConfig(5);
  bad.scenario.tracking_window_s = -1.0;
  EXPECT_THROW((void)runSimulation(bad, completeSharing()),
               std::invalid_argument);
  bad = lightConfig(5);
  bad.scenario.tracking_window_s = 10.0;
  bad.scenario.gps_fix_period_s = 0.0;
  EXPECT_THROW((void)runSimulation(bad, completeSharing()),
               std::invalid_argument);
  // GPS fix counts: the cap itself passes, one more fix fails, and a ratio
  // far past int range fails instead of reaching the int cast.
  bad = lightConfig(5);
  bad.scenario.tracking_window_s = 2.0 * (kMaxGpsFixes - 1);
  bad.scenario.gps_fix_period_s = 2.0;
  EXPECT_EQ(gpsFixCount(bad.scenario), kMaxGpsFixes);
  EXPECT_NO_THROW(validateConfig(bad));
  bad.scenario.tracking_window_s = 2.0 * kMaxGpsFixes;
  EXPECT_THROW(validateConfig(bad), std::invalid_argument);
  bad.scenario.tracking_window_s = 1e9;
  bad.scenario.gps_fix_period_s = 1e-9;
  EXPECT_THROW((void)runSimulation(bad, completeSharing()),
               std::invalid_argument);
  // A window of whole periods whose quotient rounds just below the whole
  // number (0.7 / 0.1 = 6.999..., 0.3 / 0.1 = 2.999...) still gets its
  // last fix; a window that stops short of a whole period does not.
  bad = lightConfig(5);
  bad.scenario.gps_fix_period_s = 0.1;
  for (const auto& [window, fixes] :
       {std::pair{0.7, 8}, std::pair{0.3, 4}, std::pair{0.6, 7},
        std::pair{0.65, 7}, std::pair{0.1, 2}, std::pair{0.05, 1}}) {
    bad.scenario.tracking_window_s = window;
    EXPECT_EQ(gpsFixCount(bad.scenario), fixes) << "window " << window;
  }
  EXPECT_THROW(
      (void)runSimulation(lightConfig(1),
                          [](const cellular::HexNetwork&)
                              -> std::unique_ptr<cellular::AdmissionController> {
                            return nullptr;
                          }),
      std::invalid_argument);
}

/// Every double of SimulationConfig and ScenarioParams, by name.
struct DoubleField {
  const char* name;
  void (*set)(SimulationConfig&, double);
};

const DoubleField kDoubleFields[] = {
    {"cell_radius_km",
     [](SimulationConfig& c, double v) { c.cell_radius_km = v; }},
    {"arrival_window_s",
     [](SimulationConfig& c, double v) { c.arrival_window_s = v; }},
    {"warmup_s", [](SimulationConfig& c, double v) { c.warmup_s = v; }},
    {"mobility_update_s",
     [](SimulationConfig& c, double v) { c.mobility_update_s = v; }},
    {"repartition_every_s",
     [](SimulationConfig& c, double v) { c.repartition_every_s = v; }},
    {"speed_min_kmh",
     [](SimulationConfig& c, double v) { c.scenario.speed_min_kmh = v; }},
    {"speed_max_kmh",
     [](SimulationConfig& c, double v) { c.scenario.speed_max_kmh = v; }},
    {"angle_mean_deg",
     [](SimulationConfig& c, double v) { c.scenario.angle_mean_deg = v; }},
    {"angle_sigma_deg",
     [](SimulationConfig& c, double v) { c.scenario.angle_sigma_deg = v; }},
    {"distance_min_km",
     [](SimulationConfig& c, double v) { c.scenario.distance_min_km = v; }},
    {"distance_max_km",
     [](SimulationConfig& c, double v) { c.scenario.distance_max_km = v; }},
    {"tracking_window_s",
     [](SimulationConfig& c, double v) { c.scenario.tracking_window_s = v; }},
    {"gps_fix_period_s",
     [](SimulationConfig& c, double v) { c.scenario.gps_fix_period_s = v; }},
    {"gps_error_m",
     [](SimulationConfig& c, double v) { c.scenario.gps_error_m = v; }},
    {"turn_sigma_max_deg",
     [](SimulationConfig& c, double v) { c.scenario.turn.sigma_max_deg = v; }},
    {"turn_v_ref_kmh",
     [](SimulationConfig& c, double v) { c.scenario.turn.v_ref_kmh = v; }},
};

/// A tracked multi-cell run with handoffs, so every field above is live.
SimulationConfig finiteBaseConfig() {
  SimulationConfig cfg;
  cfg.rings = 1;
  cfg.total_requests = 5;
  cfg.enable_handoffs = true;
  return cfg;
}

class NonFiniteConfig
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(NonFiniteConfig, FailsValidationInsteadOfRunning) {
  const auto [field, value] = GetParam();
  SimulationConfig cfg = finiteBaseConfig();
  ASSERT_NO_THROW(validateConfig(cfg));
  kDoubleFields[field].set(cfg, value);
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  EXPECT_THROW((void)runSimulation(cfg, completeSharing()),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    EveryDouble, NonFiniteConfig,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, std::size(kDoubleFields)),
        ::testing::Values(std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity())),
    [](const ::testing::TestParamInfo<NonFiniteConfig::ParamType>& info) {
      const double v = std::get<1>(info.param);
      return std::string{kDoubleFields[std::get<0>(info.param)].name} +
             (std::isnan(v) ? "_nan" : v > 0.0 ? "_inf" : "_neg_inf");
    });

TEST(Simulator, ZeroRequestsIsAnEmptyRun) {
  const Metrics m = runSimulation(lightConfig(0), completeSharing());
  EXPECT_EQ(m.new_requests, 0);
  EXPECT_DOUBLE_EQ(m.percentAccepted(), 100.0);
}

TEST(Simulator, CountsAreConsistent) {
  const Metrics m = runSimulation(lightConfig(60), completeSharing());
  EXPECT_EQ(m.new_requests, 60);
  EXPECT_EQ(m.new_requests, m.new_accepted + m.new_blocked);
  // Single cell without handoffs: every accepted call eventually completes.
  EXPECT_EQ(m.completed, m.new_accepted);
  EXPECT_EQ(m.handoff_requests, 0);
  int class_total = 0;
  for (const int c : m.class_requests) class_total += c;
  EXPECT_EQ(class_total, 60);
}

TEST(Simulator, RejectAllBlocksEverything) {
  SimulationConfig cfg = lightConfig(40);
  const Metrics m = runSimulation(cfg, [](const cellular::HexNetwork&) {
    return std::make_unique<RejectAll>();
  });
  EXPECT_EQ(m.new_accepted, 0);
  EXPECT_EQ(m.new_blocked, 40);
  EXPECT_DOUBLE_EQ(m.percentAccepted(), 0.0);
  EXPECT_DOUBLE_EQ(m.meanUtilization(), 0.0);
}

TEST(Simulator, AcceptAllCannotOverflowCapacity) {
  // Blind accepts at heavy load: the simulator's canFit() backstop must
  // keep the ledger legal, so the run completes without a logic_error.
  SimulationConfig cfg = lightConfig(200);
  cfg.arrival_window_s = 120.0;  // brutal arrival rate for a 40 BU cell
  const Metrics m = runSimulation(cfg, [](const cellular::HexNetwork&) {
    return std::make_unique<AcceptAll>();
  });
  EXPECT_EQ(m.new_requests, 200);
  EXPECT_GT(m.new_blocked, 0);  // physics said no, whatever the policy said
  EXPECT_LE(m.meanUtilization(), 1.0 + 1e-9);
}

TEST(Simulator, DeterministicForSameSeed) {
  const SimulationConfig cfg = lightConfig(50);
  const Metrics a = runSimulation(cfg, facsFactory());
  const Metrics b = runSimulation(cfg, facsFactory());
  EXPECT_EQ(a.new_accepted, b.new_accepted);
  EXPECT_EQ(a.new_blocked, b.new_blocked);
  EXPECT_DOUBLE_EQ(a.busy_bu_seconds, b.busy_bu_seconds);
}

TEST(Simulator, DifferentSeedsDiffer) {
  SimulationConfig a = lightConfig(50);
  SimulationConfig b = lightConfig(50);
  b.seed = 1234;
  const Metrics ma = runSimulation(a, facsFactory());
  const Metrics mb = runSimulation(b, facsFactory());
  // Not a strict guarantee, but with 50 stochastic arrivals the busy
  // integrals colliding would be a miracle.
  EXPECT_NE(ma.busy_bu_seconds, mb.busy_bu_seconds);
}

TEST(Simulator, LoadDegradesAcceptance) {
  SimulationConfig cfg = lightConfig(10);
  const Metrics light = runSimulation(cfg, completeSharing());
  cfg.total_requests = 150;
  const Metrics heavy = runSimulation(cfg, completeSharing());
  EXPECT_GT(light.percentAccepted(), heavy.percentAccepted());
  EXPECT_GT(heavy.meanUtilization(), light.meanUtilization());
}

TEST(Simulator, GpsTrackingPathRuns) {
  SimulationConfig cfg = lightConfig(30);
  cfg.scenario.tracking_window_s = 30.0;
  cfg.scenario.gps_fix_period_s = 5.0;
  cfg.scenario.gps_error_m = 10.0;
  const Metrics m = runSimulation(cfg, facsFactory());
  EXPECT_EQ(m.new_requests, 30);
  EXPECT_GT(m.new_accepted, 0);
}

TEST(Simulator, MultiCellHandoffsHappen) {
  SimulationConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_km = 2.0;  // small cells so fast users cross borders
  cfg.total_requests = 80;
  cfg.arrival_window_s = 600.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = 11;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  cfg.scenario.speed_min_kmh = 60.0;
  cfg.scenario.speed_max_kmh = 120.0;
  cfg.scenario.distance_max_km = 2.0;
  const Metrics m = runSimulation(cfg, completeSharing());
  EXPECT_GT(m.handoff_requests, 0);
  EXPECT_EQ(m.handoff_requests, m.handoff_accepted + m.handoff_dropped);
}

TEST(Simulator, SccRunsInMultiCellNetwork) {
  SimulationConfig cfg;
  cfg.rings = 1;
  cfg.total_requests = 60;
  cfg.seed = 3;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  const Metrics m =
      runSimulation(cfg, [](const cellular::HexNetwork& net) {
        return std::make_unique<scc::ShadowClusterController>(net);
      });
  EXPECT_EQ(m.new_requests, 60);
  EXPECT_GT(m.new_accepted, 0);
}

TEST(Simulator, PoissonArrivalsRunAndDiffer) {
  SimulationConfig burst = lightConfig(80);
  SimulationConfig poisson = lightConfig(80);
  poisson.arrivals = ArrivalProcess::Poisson;
  const Metrics mb = runSimulation(burst, completeSharing());
  const Metrics mp = runSimulation(poisson, completeSharing());
  EXPECT_EQ(mp.new_requests, 80);
  EXPECT_EQ(mp.new_requests, mp.new_accepted + mp.new_blocked);
  // Different arrival processes produce different dynamics.
  EXPECT_NE(mb.busy_bu_seconds, mp.busy_bu_seconds);
}

TEST(Simulator, PoissonIsDeterministicPerSeed) {
  SimulationConfig cfg = lightConfig(60);
  cfg.arrivals = ArrivalProcess::Poisson;
  const Metrics a = runSimulation(cfg, completeSharing());
  const Metrics b = runSimulation(cfg, completeSharing());
  EXPECT_DOUBLE_EQ(a.busy_bu_seconds, b.busy_bu_seconds);
}

TEST(Simulator, WarmupExcludesEarlyRequests) {
  SimulationConfig cfg = lightConfig(100);
  cfg.arrival_window_s = 400.0;
  const Metrics all = runSimulation(cfg, completeSharing());
  cfg.warmup_s = 200.0;
  const Metrics tail = runSimulation(cfg, completeSharing());
  // Roughly half the arrivals land in the warm-up and are not counted.
  EXPECT_LT(tail.new_requests, all.new_requests);
  EXPECT_GT(tail.new_requests, 20);
  EXPECT_EQ(tail.new_requests, tail.new_accepted + tail.new_blocked);
  // The busy integral only covers the measured span.
  EXPECT_LT(tail.busy_bu_seconds, all.busy_bu_seconds);
  EXPECT_LE(tail.meanUtilization(), 1.0 + 1e-9);
}

TEST(Simulator, WarmupValidation) {
  SimulationConfig cfg = lightConfig(10);
  cfg.warmup_s = -1.0;
  EXPECT_THROW((void)runSimulation(cfg, completeSharing()),
               std::invalid_argument);
}

TEST(Simulator, UtilizationBoundedByCapacity) {
  SimulationConfig cfg = lightConfig(300);
  cfg.arrival_window_s = 300.0;
  const Metrics m = runSimulation(cfg, completeSharing());
  EXPECT_GE(m.meanUtilization(), 0.0);
  EXPECT_LE(m.meanUtilization(), 1.0 + 1e-9);
}

/// Test policy whose explain-mode rationale never fits ReasonText's inline
/// buffer, so every explained decision trips truncated().
class VerbosePolicy final : public cellular::AdmissionController {
 public:
  [[nodiscard]] std::string name() const override { return "Verbose"; }
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest&, const cellular::AdmissionContext& ctx)
      override {
    cellular::AdmissionDecision d{true, cellular::ReasonCode::Admitted, 1.0,
                                  {}};
    if (ctx.explain) {
      d.rationale = std::string(cellular::ReasonText::kCapacity + 40, 'x');
    }
    return d;
  }
};

TEST(Simulator, TruncatedRationalesAreCountedOnlyWhenExplaining) {
  SimulationConfig cfg = lightConfig(25);
  const auto verbose = [](const cellular::HexNetwork&) {
    return std::make_unique<VerbosePolicy>();
  };
  const Metrics quiet = runSimulation(cfg, verbose);
  EXPECT_EQ(quiet.truncated_rationales, 0)
      << "explain off: no rationale, nothing to truncate";

  cfg.explain = true;
  const Metrics explained = runSimulation(cfg, verbose);
  EXPECT_EQ(explained.truncated_rationales, 25)
      << "every explained decision overflowed the inline buffer";
  // Surfacing the loss must not perturb the run itself.
  EXPECT_EQ(explained.new_accepted, quiet.new_accepted);
  EXPECT_EQ(explained.engine_events, quiet.engine_events);

  // The counter honours the warmup gate like every other metric: only
  // measured (counted) decisions report their truncation.
  cfg.warmup_s = 300.0;  // half the default 600 s arrival window
  const Metrics warmed = runSimulation(cfg, verbose);
  EXPECT_EQ(warmed.truncated_rationales, warmed.new_requests);
  EXPECT_LT(warmed.truncated_rationales, 25);
  EXPECT_GT(warmed.truncated_rationales, 0);
}

// ------------------------------------------------------------ edge configs

TEST(EdgeConfig, RingsAreAcceptedUpToTheCapAndRejectedPastIt) {
  // validateConfig checks geometry without building the network, so the
  // 788k-cell cap itself validates cheaply.
  SimulationConfig cfg = lightConfig(5);
  cfg.rings = kMaxRings;
  EXPECT_NO_THROW(validateConfig(cfg));
  cfg.rings = kMaxRings + 1;
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
}

TEST(EdgeConfig, UnitCapacityConservesRequests) {
  // One BU fits a single text call and never a voice or video call; every
  // request must still end up either accepted or blocked.
  SimulationConfig cfg = lightConfig(200);
  cfg.capacity_bu = 1;
  for (const auto& factory : {completeSharing(), facsFactory()}) {
    const Metrics m = runSimulation(cfg, factory);
    EXPECT_EQ(m.new_requests, 200);
    EXPECT_EQ(m.new_requests, m.new_accepted + m.new_blocked);
    EXPECT_GT(m.new_blocked, 0);
    EXPECT_LE(m.meanUtilization(), 1.0 + 1e-9);
  }
}

serve::ScenarioMutation outageAt(double at_s) {
  serve::ScenarioMutation m;
  m.at_s = at_s;
  m.op = serve::MutationOp::Outage;
  m.cell = 0;
  return m;
}

TEST(EdgeConfig, MutationAtTimeZeroAppliesBeforeTheFirstDecision) {
  // The single cell goes down at t = 0: no decision may see it up.
  SimulationConfig cfg = lightConfig(50);
  cfg.mutations.push_back(outageAt(0.0));
  const Metrics m = runSimulation(cfg, completeSharing());
  EXPECT_EQ(m.mutations_applied, 1);
  EXPECT_EQ(m.new_requests, 50);
  EXPECT_EQ(m.new_accepted, 0);
  EXPECT_EQ(m.new_blocked, 50);
  EXPECT_EQ(m.outage_forced_drops, 0);
}

TEST(EdgeConfig, MutationAfterTheLastEventIsNotApplied) {
  // Pins today's behaviour. With handoffs the run is windowed by the
  // mobility period and ends after the window of its last event, so a
  // mutation scheduled past it never fires and the run is the plain one.
  SimulationConfig cfg = lightConfig(50);
  cfg.rings = 1;
  cfg.cell_radius_km = 2.0;
  cfg.enable_handoffs = true;
  const Metrics plain = runSimulation(cfg, completeSharing());
  cfg.mutations.push_back(outageAt(1.0e6));
  const Metrics m = runSimulation(cfg, completeSharing());
  EXPECT_EQ(m.mutations_applied, 0);
  EXPECT_EQ(m.outage_forced_drops, 0);
  EXPECT_EQ(m.new_accepted, plain.new_accepted);
  EXPECT_EQ(m.completed, plain.completed);
  EXPECT_EQ(m.busy_bu_seconds, plain.busy_bu_seconds);

  // Without handoffs the run is one unbounded window, which the mutation
  // clamps to end at its instant: it applies there, after every event,
  // and changes nothing.
  cfg.enable_handoffs = false;
  const Metrics unbounded = runSimulation(cfg, completeSharing());
  EXPECT_EQ(unbounded.mutations_applied, 1);
  EXPECT_EQ(unbounded.outage_forced_drops, 0);
}

TEST(EdgeConfig, ZeroTrackingWindowConservesRequestsAcrossGroups) {
  // tracking_window_s = 0 skips the GPS walk: each decision reads the
  // ground-truth snapshot at its arrival instant. Across four commit
  // groups every new and handoff request must still be settled, and the
  // run must not depend on the worker count.
  SimulationConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_km = 2.0;
  cfg.total_requests = 150;
  cfg.arrival_window_s = 400.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = 31;
  cfg.scenario.speed_min_kmh = 30.0;
  cfg.scenario.speed_max_kmh = 110.0;
  cfg.scenario.distance_max_km = 2.0;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.commit_groups = 4;
  for (const char* policy : {"facs", "cs", "guard:8"}) {
    cfg.shards = 1;
    const Metrics m = runPolicy(cfg, policy);
    EXPECT_EQ(m.commit_groups, 4) << policy;
    EXPECT_EQ(m.new_requests, 150) << policy;
    EXPECT_EQ(m.new_requests, m.new_accepted + m.new_blocked) << policy;
    EXPECT_GT(m.handoff_requests, 0) << policy;
    EXPECT_EQ(m.handoff_requests, m.handoff_accepted + m.handoff_dropped)
        << policy;
    cfg.shards = 3;
    EXPECT_EQ(runPolicy(cfg, policy).toJson(),
              m.toJson())
        << policy << " shards 1 vs 3";
  }
}

}  // namespace
}  // namespace facs::sim
