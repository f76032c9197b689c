#include "sim/scenario_catalog.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cellular/policy_registry.hpp"
#include "run_policy.hpp"

namespace facs::sim {
namespace {

TEST(ScenarioCatalog, BuiltinScenariosAreCatalogued) {
  const ScenarioCatalog& catalog = ScenarioCatalog::builtins();
  const std::vector<std::string> names = catalog.names();
  for (const char* expected :
       {"paper-single-cell", "urban-walkers", "highway", "stadium-burst",
        "poisson-steady-state"}) {
    EXPECT_TRUE(catalog.contains(expected)) << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end());
    EXPECT_FALSE(catalog.at(expected).summary.empty()) << expected;
    EXPECT_NE(catalog.describeAll().find(expected), std::string::npos);
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ScenarioCatalog, EveryScenarioValidates) {
  for (const std::string& name : ScenarioCatalog::builtins().names()) {
    EXPECT_NO_THROW(validateConfig(ScenarioCatalog::builtins().at(name).config))
        << name;
  }
}

TEST(ScenarioCatalog, PaperScenarioMatchesPaperDefaults) {
  const SimulationConfig& cfg =
      ScenarioCatalog::builtins().at("paper-single-cell").config;
  EXPECT_EQ(cfg.rings, 0);
  EXPECT_EQ(cfg.capacity_bu, cellular::kPaperCellCapacityBu);
  EXPECT_DOUBLE_EQ(cfg.cell_radius_km, 10.0);
}

TEST(ScenarioCatalog, UnknownScenarioThrows) {
  EXPECT_THROW((void)ScenarioCatalog::builtins().at("mars-base"), ScenarioError);
}

/// The paper's single cell with tracking off: a run of a few ms.
SimulationConfig quickConfig(int requests) {
  SimulationConfig cfg;
  cfg.total_requests = requests;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  return cfg;
}

TEST(ScenarioRun, RunIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    SimulationConfig cfg =
        ScenarioCatalog::builtins().at("urban-walkers").config;
    cfg.total_requests = 40;
    cfg.seed = seed;
    return runPolicy(cfg, "facs").percentAccepted();
  };
  EXPECT_DOUBLE_EQ(run(5), run(5));
}

TEST(ScenarioCatalog, AddExtendsOnlyThisInstance) {
  ScenarioCatalog mine;
  ScenarioSpec spec = ScenarioCatalog::builtins().at("highway");
  spec.name = "autobahn";
  mine.add(spec);
  EXPECT_TRUE(mine.contains("autobahn"));
  EXPECT_TRUE(mine.contains("highway"));  // built-ins seed every instance
  EXPECT_FALSE(ScenarioCatalog::builtins().contains("autobahn"));
  EXPECT_THROW(mine.add(spec), ScenarioError);  // duplicate
  spec.name = "";
  EXPECT_THROW(mine.add(spec), ScenarioError);  // unnamed
}

TEST(ScenarioRun, CustomRuntimeResolvesExternalPolicies) {
  cellular::PolicyRuntime extended;
  extended.registerExternal(
      {"plugin-stub", "test stub", "plugin-stub"},
      [](const cellular::PolicySpec&) -> ControllerFactory {
        return cellular::PolicyRuntime::defaultRuntime().makeFactory("cs");
      });
  const Metrics m = runPolicy(quickConfig(10), "plugin-stub", extended);
  EXPECT_EQ(m.new_requests, 10);
  // Without the runtime, the spec is unknown — no bleed into the default.
  EXPECT_THROW(
      (void)cellular::PolicyRuntime::defaultRuntime().makeFactory(
          "plugin-stub"),
      cellular::PolicySpecError);
}

TEST(ScenarioRun, ExplainTogglesRationalesWithoutChangingDecisions) {
  const auto run = [](bool explain) {
    SimulationConfig cfg = quickConfig(30);
    cfg.seed = 11;
    cfg.explain = explain;
    return runPolicy(cfg, "facs");
  };
  const Metrics quiet = run(false);
  const Metrics verbose = run(true);
  EXPECT_EQ(quiet.new_accepted, verbose.new_accepted);
  EXPECT_EQ(quiet.engine_events, verbose.engine_events);
  // Built-in rationales fit the inline buffer; nothing is truncated.
  EXPECT_EQ(quiet.truncated_rationales, 0);
  EXPECT_EQ(verbose.truncated_rationales, 0);
}

TEST(ScenarioRun, CellCapacityOverridesValidateAndApply) {
  // cell 0 starved to 5 BU: the run sees the reduced total capacity.
  SimulationConfig cfg = quickConfig(20);
  cfg.cell_overrides.push_back(CellOverride{0, 5, {}, {}});
  const Metrics m = runPolicy(cfg, "cs");
  EXPECT_EQ(m.total_capacity_bu, 5);
  // Out-of-disk and non-positive overrides fail validation.
  cfg.cell_overrides = {CellOverride{7, 5, {}, {}}};
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  cfg.cell_overrides = {CellOverride{0, 0, {}, {}}};
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
}

TEST(ScenarioRun, CatalogEntriesRunUnderEveryPolicy) {
  // Smoke: the whole catalog x a few registry specs. Scale the heavier
  // scenarios down so this stays a unit test.
  for (const std::string& scenario : ScenarioCatalog::builtins().names()) {
    SimulationConfig cfg = ScenarioCatalog::builtins().at(scenario).config;
    cfg.total_requests = 20;
    cfg.arrival_window_s = 120.0;
    cfg.warmup_s = 0.0;
    cfg.scenario.tracking_window_s = 0.0;
    cfg.scenario.gps_error_m.reset();
    cfg.seed = 1;
    for (const char* policy : {"facs", "cs", "guard:8"}) {
      EXPECT_EQ(runPolicy(cfg, policy).new_requests, 20)
          << scenario << "/" << policy;
    }
  }
}

}  // namespace
}  // namespace facs::sim
