#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "cellular/policy_registry.hpp"
#include "sim/scenario_file.hpp"

namespace facs::sim {
namespace {

TEST(Cli, DefaultsWhenEmpty) {
  const CliOptions opt = parseCli({});
  EXPECT_EQ(opt.policy, "facs");
  EXPECT_TRUE(opt.scenario.empty());
  EXPECT_EQ(opt.config.total_requests, 50);
  EXPECT_FALSE(opt.csv);
  EXPECT_FALSE(opt.help);
  EXPECT_FALSE(opt.list_policies);
  EXPECT_FALSE(opt.list_scenarios);
  EXPECT_TRUE(opt.sweep_xs.empty());
}

TEST(Cli, AcceptsEveryRegisteredPolicy) {
  for (const std::string& name : cellular::PolicyRegistry::global().names()) {
    EXPECT_EQ(parseCli({"--policy", name}).policy, name) << name;
  }
  EXPECT_THROW((void)parseCli({"--policy", "nope"}), CliError);
}

TEST(Cli, AcceptsParameterizedPolicySpecs) {
  EXPECT_EQ(parseCli({"--policy", "guard:12"}).policy, "guard:12");
  EXPECT_EQ(parseCli({"--policy", "facs:tau=0.25,ops=prod"}).policy,
            "facs:tau=0.25,ops=prod");
  EXPECT_EQ(parseCli({"--policy", "threshold:38,30,20"}).policy,
            "threshold:38,30,20");
  // Malformed parameters fail at parse time.
  EXPECT_THROW((void)parseCli({"--policy", "guard:abc"}), CliError);
  EXPECT_THROW((void)parseCli({"--policy", "facs:tua=0.2"}), CliError);
}

TEST(Cli, RemovedPolicyShorthandsAreUnknownFlags) {
  // `--policy guard:N` and `--policy facs:tau=T` are the only spellings.
  for (const char* flag : {"--guard-bu", "--facs-threshold"}) {
    try {
      (void)parseCli({"--policy", "guard", flag, "12"});
      ADD_FAILURE() << flag << " was accepted";
    } catch (const CliError& e) {
      EXPECT_NE(std::string{e.what()}.find("unknown flag"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, ScenarioSetsTheBaseConfig) {
  const CliOptions opt = parseCli({"--scenario", "highway"});
  EXPECT_EQ(opt.scenario, "highway");
  EXPECT_EQ(opt.config.rings, 1);
  EXPECT_TRUE(opt.config.enable_handoffs);
  EXPECT_DOUBLE_EQ(opt.config.cell_radius_km, 2.0);
  EXPECT_THROW((void)parseCli({"--scenario", "mars-base"}), CliError);
}

TEST(Cli, FlagsOverrideTheScenarioRegardlessOfOrder) {
  // --scenario is resolved first even when it appears after the override.
  const CliOptions opt =
      parseCli({"--requests", "7", "--scenario", "highway", "--rings", "2"});
  EXPECT_EQ(opt.config.total_requests, 7);
  EXPECT_EQ(opt.config.rings, 2);
  EXPECT_DOUBLE_EQ(opt.config.cell_radius_km, 2.0);  // from the scenario
}

TEST(Cli, RepeatedScenarioLastWinsAndAllAreValidated) {
  const CliOptions opt =
      parseCli({"--scenario", "highway", "--scenario", "urban-walkers"});
  EXPECT_EQ(opt.scenario, "urban-walkers");
  EXPECT_DOUBLE_EQ(opt.config.cell_radius_km, 1.5);  // urban-walkers, not highway
  // A bogus later occurrence must not slip through.
  EXPECT_THROW(
      (void)parseCli({"--scenario", "highway", "--scenario", "mars-base"}),
      CliError);
}

TEST(Cli, ShardsFlagParsesAndValidates) {
  EXPECT_EQ(parseCli({}).config.shards, 1);
  EXPECT_EQ(parseCli({"--shards", "4"}).config.shards, 4);
  // Scenario defaults show through; an explicit flag overrides them.
  EXPECT_EQ(parseCli({"--scenario", "stadium-burst"}).config.shards, 4);
  EXPECT_EQ(parseCli({"--scenario", "stadium-burst", "--shards", "2"})
                .config.shards,
            2);
  // Out-of-range counts fail at parse time, not mid-run.
  EXPECT_THROW((void)parseCli({"--shards", "0"}), CliError);
  EXPECT_THROW((void)parseCli({"--shards", "-2"}), CliError);
  EXPECT_THROW((void)parseCli({"--shards", "100000"}), CliError);
  EXPECT_THROW((void)parseCli({"--shards", "two"}), CliError);
}

TEST(Cli, CommitGroupsFlagParsesAndValidates) {
  EXPECT_EQ(parseCli({}).config.commit_groups, 1);
  EXPECT_EQ(parseCli({"--commit-groups", "4"}).config.commit_groups, 4);
  EXPECT_EQ(parseCli({"--scenario", "highway", "--commit-groups", "7"})
                .config.commit_groups,
            7);
  EXPECT_THROW((void)parseCli({"--commit-groups", "0"}), CliError);
  EXPECT_THROW((void)parseCli({"--commit-groups", "-1"}), CliError);
  EXPECT_THROW((void)parseCli({"--commit-groups", "100000"}), CliError);
  EXPECT_THROW((void)parseCli({"--commit-groups", "four"}), CliError);
  // The usage text teaches the knob.
  EXPECT_NE(cliUsage().find("--commit-groups"), std::string::npos);
}

TEST(Cli, ListScenariosShowsCellCounts) {
  // Operators pick shard counts by cell count, so the catalog dump carries
  // it: "[7 cells, shards 4]" style annotations per entry.
  const std::string dump = ScenarioCatalog::builtins().describeAll();
  EXPECT_NE(dump.find("[1 cell, shards 1]"), std::string::npos) << dump;
  EXPECT_NE(dump.find("[7 cells, shards 4]"), std::string::npos) << dump;
}

TEST(Cli, ListFlags) {
  EXPECT_TRUE(parseCli({"--list-policies"}).list_policies);
  EXPECT_TRUE(parseCli({"--list-scenarios"}).list_scenarios);
}

TEST(Cli, ScenarioFileSetsTheBaseConfig) {
  const std::string path = testing::TempDir() + "/cli_scenario.scn";
  {
    ScenarioSpec spec = ScenarioCatalog::builtins().at("highway");
    spec.name = "cli-highway";
    spec.policy = "guard:6";
    std::ofstream out{path};
    out << writeScenarioFile(spec);
  }
  const CliOptions opt = parseCli({"--scenario-file", path});
  EXPECT_EQ(opt.scenario, "cli-highway");
  EXPECT_EQ(opt.scenario_file, path);
  EXPECT_EQ(opt.config.rings, 1);
  EXPECT_DOUBLE_EQ(opt.config.cell_radius_km, 2.0);
  // The file's policy becomes the default...
  EXPECT_EQ(opt.policy, "guard:6");
  // ...and an explicit --policy still wins, in either flag order.
  EXPECT_EQ(parseCli({"--scenario-file", path, "--policy", "scc"}).policy,
            "scc");
  EXPECT_EQ(parseCli({"--policy", "scc", "--scenario-file", path}).policy,
            "scc");
  // Flags override the file base like they override --scenario.
  EXPECT_EQ(parseCli({"--scenario-file", path, "--requests", "9"})
                .config.total_requests,
            9);
}

TEST(Cli, ScenarioFileErrorsCarryFileAndLine) {
  const std::string path = testing::TempDir() + "/cli_bad.scn";
  {
    std::ofstream out{path};
    out << "[scenario]\nname = \"bad\"\npolicy = \"guard:-1\"\n";
  }
  try {
    (void)parseCli({"--scenario-file", path});
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(":3:"), std::string::npos) << what;
  }
  EXPECT_THROW((void)parseCli({"--scenario-file", "/nonexistent.scn"}),
               CliError);
  EXPECT_THROW((void)parseCli({"--scenario-file"}), CliError);
}

TEST(Cli, DumpScenarioValidatesTheName) {
  EXPECT_EQ(parseCli({"--dump-scenario", "highway"}).dump_scenario,
            "highway");
  EXPECT_THROW((void)parseCli({"--dump-scenario", "mars-base"}), CliError);
  EXPECT_THROW((void)parseCli({"--dump-scenario"}), CliError);
  // "-" means the composed run and needs no catalog entry; the summary is
  // kept so the dump round-trips the whole spec.
  const CliOptions opt =
      parseCli({"--scenario", "highway", "--requests", "9",
                "--dump-scenario", "-"});
  EXPECT_EQ(opt.dump_scenario, "-");
  EXPECT_EQ(opt.scenario_summary,
            ScenarioCatalog::builtins().at("highway").summary);
  EXPECT_EQ(opt.config.total_requests, 9);
}

TEST(Cli, ExplainAndJsonFlags) {
  EXPECT_FALSE(parseCli({}).explain);
  EXPECT_FALSE(parseCli({}).config.explain);
  EXPECT_FALSE(parseCli({}).json);
  const CliOptions opt = parseCli({"--explain", "--json"});
  EXPECT_TRUE(opt.explain);
  EXPECT_TRUE(opt.config.explain);
  EXPECT_TRUE(opt.json);
}

TEST(Cli, CustomRuntimeResolvesExternalPolicies) {
  cellular::PolicyRuntime extended;
  extended.registerExternal(
      {"cli-plugin", "test stub", "cli-plugin"},
      [](const cellular::PolicySpec&) -> ControllerFactory {
        return cellular::PolicyRuntime::defaultRuntime().makeFactory("cs");
      });
  const CliOptions opt = parseCli({"--policy", "cli-plugin"}, extended,
                                  ScenarioCatalog::builtins());
  EXPECT_EQ(opt.policy, "cli-plugin");
  EXPECT_NE(makeFactory(opt, extended), nullptr);
  // The default runtime (and thus the default overload) never sees it.
  EXPECT_THROW((void)parseCli({"--policy", "cli-plugin"}), CliError);
}

TEST(Cli, ParsesWorkloadFlags) {
  const CliOptions opt = parseCli(
      {"--requests", "80", "--window", "300", "--seed", "9", "--poisson",
       "--warmup", "120", "--speed", "30:60", "--angle", "15:20",
       "--distance", "2:8", "--tracking-window", "10", "--gps-error", "25"});
  EXPECT_EQ(opt.config.total_requests, 80);
  EXPECT_DOUBLE_EQ(opt.config.arrival_window_s, 300.0);
  EXPECT_EQ(opt.config.seed, 9u);
  EXPECT_EQ(opt.config.arrivals, ArrivalProcess::Poisson);
  EXPECT_DOUBLE_EQ(opt.config.warmup_s, 120.0);
  EXPECT_DOUBLE_EQ(opt.config.scenario.speed_min_kmh, 30.0);
  EXPECT_DOUBLE_EQ(opt.config.scenario.speed_max_kmh, 60.0);
  EXPECT_DOUBLE_EQ(opt.config.scenario.angle_mean_deg, 15.0);
  EXPECT_DOUBLE_EQ(opt.config.scenario.angle_sigma_deg, 20.0);
  EXPECT_DOUBLE_EQ(opt.config.scenario.distance_min_km, 2.0);
  EXPECT_DOUBLE_EQ(opt.config.scenario.distance_max_km, 8.0);
  EXPECT_DOUBLE_EQ(opt.config.scenario.tracking_window_s, 10.0);
  ASSERT_TRUE(opt.config.scenario.gps_error_m.has_value());
  EXPECT_DOUBLE_EQ(*opt.config.scenario.gps_error_m, 25.0);
}

TEST(Cli, SingleValueRangesAndExactAngle) {
  const CliOptions opt =
      parseCli({"--speed", "60", "--angle", "45", "--distance", "7"});
  EXPECT_DOUBLE_EQ(opt.config.scenario.speed_min_kmh, 60.0);
  EXPECT_DOUBLE_EQ(opt.config.scenario.speed_max_kmh, 60.0);
  EXPECT_DOUBLE_EQ(opt.config.scenario.angle_mean_deg, 45.0);
  EXPECT_DOUBLE_EQ(opt.config.scenario.angle_sigma_deg, 0.0);  // exact
  EXPECT_DOUBLE_EQ(opt.config.scenario.distance_min_km, 7.0);
}

TEST(Cli, NetworkKnobs) {
  const CliOptions opt = parseCli({"--rings", "2", "--cell-radius", "2.5",
                                   "--capacity", "80", "--handoffs",
                                   "--no-gps"});
  EXPECT_EQ(opt.config.rings, 2);
  EXPECT_DOUBLE_EQ(opt.config.cell_radius_km, 2.5);
  EXPECT_EQ(opt.config.capacity_bu, 80);
  EXPECT_TRUE(opt.config.enable_handoffs);
  EXPECT_FALSE(opt.config.scenario.gps_error_m.has_value());
}

TEST(Cli, SweepAndOutput) {
  const CliOptions opt = parseCli(
      {"--sweep", "10,50,100", "--reps", "3", "--threads", "2", "--csv"});
  EXPECT_EQ(opt.sweep_xs, (std::vector<int>{10, 50, 100}));
  EXPECT_EQ(opt.replications, 3);
  EXPECT_EQ(opt.threads, 2);
  EXPECT_TRUE(opt.csv);
}

TEST(Cli, HelpFlag) {
  EXPECT_TRUE(parseCli({"--help"}).help);
  EXPECT_TRUE(parseCli({"-h"}).help);
  const std::string usage = cliUsage();
  EXPECT_NE(usage.find("--policy"), std::string::npos);
  EXPECT_NE(usage.find("--scenario"), std::string::npos);
  // The usage text is generated from the live registry and catalog.
  for (const std::string& name : cellular::PolicyRegistry::global().names()) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
  for (const std::string& name : ScenarioCatalog::builtins().names()) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
}

TEST(Cli, Errors) {
  EXPECT_THROW((void)parseCli({"--bogus"}), CliError);
  EXPECT_THROW((void)parseCli({"--requests"}), CliError);        // missing value
  EXPECT_THROW((void)parseCli({"--requests", "ten"}), CliError); // not a number
  EXPECT_THROW((void)parseCli({"--requests", "1.5"}), CliError); // not an int
  EXPECT_THROW((void)parseCli({"--sweep", ","}), CliError);      // empty list
  EXPECT_THROW((void)parseCli({"--policy"}), CliError);          // missing value
}

TEST(Cli, RejectsNonFiniteAndOutOfRangeNumbers) {
  // std::stod accepts these; every one used to crash, hang or run on
  // garbage downstream.
  EXPECT_THROW((void)parseCli({"--window", "inf"}), CliError);
  EXPECT_THROW((void)parseCli({"--tracking-window", "nan"}), CliError);
  EXPECT_THROW((void)parseCli({"--warmup", "nan"}), CliError);
  EXPECT_THROW((void)parseCli({"--cell-radius", "inf"}), CliError);
  EXPECT_THROW((void)parseCli({"--speed", "nan"}), CliError);
  EXPECT_THROW((void)parseCli({"--speed", "10:-inf"}), CliError);
  EXPECT_THROW((void)parseCli({"--requests", "inf"}), CliError);
  // Integers are range-checked before the cast, not after it.
  EXPECT_THROW((void)parseCli({"--requests", "3e9"}), CliError);
  EXPECT_THROW((void)parseCli({"--rings", "-3e9"}), CliError);
  EXPECT_EQ(parseCli({"--window", "1e3"}).config.arrival_window_s, 1000.0);
}

TEST(Cli, FactoriesProduceWorkingControllers) {
  for (const std::string& name : cellular::PolicyRegistry::global().names()) {
    const CliOptions opt = parseCli({"--policy", name});
    const ControllerFactory factory = makeFactory(opt);
    const cellular::HexNetwork net{1};
    const auto controller = factory(net);
    ASSERT_NE(controller, nullptr) << name;
    EXPECT_FALSE(controller->name().empty()) << name;
  }
}

TEST(Cli, EndToEndRunWithParsedConfig) {
  CliOptions opt = parseCli({"--policy", "cs", "--requests", "30",
                             "--tracking-window", "0", "--no-gps"});
  const Metrics m = runSimulation(opt.config, makeFactory(opt));
  EXPECT_EQ(m.new_requests, 30);
}

TEST(Cli, EndToEndRunFromScenario) {
  CliOptions opt =
      parseCli({"--scenario", "urban-walkers", "--policy", "guard:8",
                "--requests", "25", "--tracking-window", "0", "--no-gps"});
  const Metrics m = runSimulation(opt.config, makeFactory(opt));
  EXPECT_EQ(m.new_requests, 25);
}

}  // namespace
}  // namespace facs::sim
