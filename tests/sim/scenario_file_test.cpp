#include "sim/scenario_file.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "cellular/policy_registry.hpp"
#include "sim/scenario_catalog.hpp"

namespace facs::sim {
namespace {

const cellular::PolicyRuntime& runtime() {
  return cellular::PolicyRuntime::defaultRuntime();
}

/// Deterministic-counter equality via the diffable JSON form (exactly what
/// the CI round-trip gate compares): every counter and every double, no
/// wall-clock noise.
void expectSameMetrics(const Metrics& a, const Metrics& b,
                       const std::string& label) {
  EXPECT_EQ(a.toJson(), b.toJson()) << label;
}

TEST(ScenarioFile, EveryBuiltinRoundTripsBitIdentically) {
  for (const std::string& name : ScenarioCatalog::builtins().names()) {
    const ScenarioSpec& original = ScenarioCatalog::builtins().at(name);
    const std::string text = writeScenarioFile(original);
    const ScenarioSpec parsed = parseScenarioFile(text, runtime(), name);

    // The golden property: file -> catalog -> file reproduces the text
    // byte for byte (write() is a canonical form)...
    EXPECT_EQ(writeScenarioFile(parsed), text) << name;
    EXPECT_EQ(parsed.name, original.name);
    EXPECT_EQ(parsed.summary, original.summary) << name;
    EXPECT_EQ(parsed.policy, original.policy) << name;

    // ...and the parsed config simulates bit-identically to the in-code
    // definition, serial and sharded.
    const ControllerFactory factory = runtime().makeFactory(parsed.policy);
    for (const int shards : {1, 3}) {
      SimulationConfig in_code = original.config;
      SimulationConfig from_file = parsed.config;
      in_code.shards = shards;
      from_file.shards = shards;
      expectSameMetrics(runSimulation(in_code, factory),
                        runSimulation(from_file, factory),
                        name + " @shards=" + std::to_string(shards));
    }
  }
}

TEST(ScenarioFile, MinimalFileKeepsPaperDefaults) {
  const ScenarioSpec spec =
      parseScenarioFile("[scenario]\nname = \"bare\"\n", runtime());
  EXPECT_EQ(spec.name, "bare");
  EXPECT_EQ(spec.policy, "facs");
  // The whole config is the paper default — canonical text proves it.
  ScenarioSpec defaults;
  defaults.name = "bare";
  EXPECT_EQ(writeScenarioFile(spec), writeScenarioFile(defaults));
}

TEST(ScenarioFile, CommentsQuotesAndSpacingAreTolerated) {
  const ScenarioSpec spec = parseScenarioFile(
      "# leading comment\n"
      "\n"
      "[scenario]\n"
      "  name   =   \"spaced # not a comment\"   # trailing comment\n"
      "summary = \"escaped \\\"quote\\\" and backslash \\\\\" # comment\n"
      "[run]\n"
      "requests = 7\n",
      runtime());
  EXPECT_EQ(spec.name, "spaced # not a comment");
  EXPECT_EQ(spec.summary, "escaped \"quote\" and backslash \\");
  EXPECT_EQ(spec.config.total_requests, 7);
}

TEST(ScenarioFile, ParsesEveryConfigField) {
  const ScenarioSpec spec = parseScenarioFile(
      "[scenario]\n"
      "name = \"full\"\n"
      "policy = \"guard:8\"\n"
      "[network]\n"
      "rings = 2\n"
      "cell_radius_km = 1.25\n"
      "capacity_bu = 60\n"
      "handoffs = true\n"
      "mobility_update_s = 2.5\n"
      "[cell 3]\n"
      "capacity_bu = 80\n"
      "[cell 11]\n"
      "capacity_bu = 20\n"
      "[run]\n"
      "requests = 321\n"
      "window_s = 123.5\n"
      "arrivals = \"poisson\"\n"
      "warmup_s = 60\n"
      "seed = 12345678901234567890\n"
      "shards = 5\n"
      "commit_groups = 4\n"
      "partition = \"weighted\"\n"
      "repartition_every_s = 45\n"
      "explain = true\n"
      "[population]\n"
      "speed_kmh = [3, 9]\n"
      "angle_deg = [10, 20]\n"
      "distance_km = [0.5, 1.5]\n"
      "mix = [0.25, 0.25, 0.5]\n"
      "tracking_window_s = 12\n"
      "gps_fix_period_s = 3\n"
      "gps_error_m = none\n"
      "[turn]\n"
      "sigma_max_deg = 55\n"
      "v_ref_kmh = 21\n",
      runtime());
  const SimulationConfig& cfg = spec.config;
  EXPECT_EQ(spec.policy, "guard:8");
  EXPECT_EQ(cfg.rings, 2);
  EXPECT_DOUBLE_EQ(cfg.cell_radius_km, 1.25);
  EXPECT_EQ(cfg.capacity_bu, 60);
  EXPECT_TRUE(cfg.enable_handoffs);
  EXPECT_DOUBLE_EQ(cfg.mobility_update_s, 2.5);
  ASSERT_EQ(cfg.cell_overrides.size(), 2u);
  EXPECT_EQ(cfg.cell_overrides[0].cell, 3);
  EXPECT_EQ(cfg.cell_overrides[0].capacity_bu, 80);
  EXPECT_FALSE(cfg.cell_overrides[0].arrival_scale.has_value());
  EXPECT_FALSE(cfg.cell_overrides[0].mix.has_value());
  EXPECT_EQ(cfg.cell_overrides[1].cell, 11);
  EXPECT_EQ(cfg.cell_overrides[1].capacity_bu, 20);
  EXPECT_EQ(cfg.total_requests, 321);
  EXPECT_DOUBLE_EQ(cfg.arrival_window_s, 123.5);
  EXPECT_EQ(cfg.arrivals, ArrivalProcess::Poisson);
  EXPECT_DOUBLE_EQ(cfg.warmup_s, 60.0);
  EXPECT_EQ(cfg.seed, 12345678901234567890ull);
  EXPECT_EQ(cfg.shards, 5);
  EXPECT_EQ(cfg.commit_groups, 4);
  EXPECT_EQ(cfg.partition, PartitionStrategy::Weighted);
  EXPECT_DOUBLE_EQ(cfg.repartition_every_s, 45.0);
  EXPECT_TRUE(cfg.explain);
  EXPECT_DOUBLE_EQ(cfg.scenario.speed_min_kmh, 3.0);
  EXPECT_DOUBLE_EQ(cfg.scenario.speed_max_kmh, 9.0);
  EXPECT_DOUBLE_EQ(cfg.scenario.angle_mean_deg, 10.0);
  EXPECT_DOUBLE_EQ(cfg.scenario.angle_sigma_deg, 20.0);
  EXPECT_DOUBLE_EQ(cfg.scenario.distance_min_km, 0.5);
  EXPECT_DOUBLE_EQ(cfg.scenario.distance_max_km, 1.5);
  EXPECT_DOUBLE_EQ(
      cfg.scenario.mix.fraction(cellular::ServiceClass::Video), 0.5);
  EXPECT_DOUBLE_EQ(cfg.scenario.tracking_window_s, 12.0);
  EXPECT_DOUBLE_EQ(cfg.scenario.gps_fix_period_s, 3.0);
  EXPECT_FALSE(cfg.scenario.gps_error_m.has_value());
  EXPECT_DOUBLE_EQ(cfg.scenario.turn.sigma_max_deg, 55.0);
  EXPECT_DOUBLE_EQ(cfg.scenario.turn.v_ref_kmh, 21.0);

  // A full custom spec round-trips too, overrides included.
  EXPECT_EQ(writeScenarioFile(parseScenarioFile(writeScenarioFile(spec),
                                                runtime())),
            writeScenarioFile(spec));
}

TEST(ScenarioFile, CapacityOverridesShapeTheRun) {
  const ScenarioSpec starved = parseScenarioFile(
      "[scenario]\nname = \"starved\"\npolicy = \"cs\"\n"
      "[run]\nrequests = 60\n"
      "[population]\ntracking_window_s = 0\ngps_error_m = none\n"
      "[cell 0]\ncapacity_bu = 5\n",
      runtime());
  ScenarioSpec roomy = starved;
  roomy.config.cell_overrides.clear();
  const ControllerFactory cs = runtime().makeFactory("cs");
  const Metrics tight = runSimulation(starved.config, cs);
  const Metrics loose = runSimulation(roomy.config, cs);
  EXPECT_EQ(tight.total_capacity_bu, 5);
  EXPECT_EQ(loose.total_capacity_bu, 40);
  EXPECT_LT(tight.new_accepted, loose.new_accepted);
}

// ---------------------------------------------------------------- errors --

/// The parse must fail, the message must carry the source label and the
/// expected 1-based line, and the structured line() must agree.
void expectError(std::string_view text, int line,
                 std::string_view message_fragment) {
  try {
    (void)parseScenarioFile(text, runtime(), "bad.scn");
    FAIL() << "expected ScenarioFileError for: " << text;
  } catch (const ScenarioFileError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.scn"), std::string::npos) << what;
    if (line > 0) {
      EXPECT_NE(what.find(":" + std::to_string(line) + ":"),
                std::string::npos)
          << what;
    }
    EXPECT_NE(what.find(message_fragment), std::string::npos) << what;
  }
}

TEST(ScenarioFile, UnknownKeysAndSectionsAreErrors) {
  expectError("[scenario]\nname = \"x\"\nbogus = 1\n", 3, "unknown key");
  expectError("[scenario]\nname = \"x\"\n[warp]\n", 3, "unknown section");
  expectError("[scenario]\nname = \"x\"\n[network]\nrequests = 5\n", 4,
              "unknown key 'requests'");
  // The FLC1 hoist has no toggle: a stale `precompute` key is an error,
  // not silently ignored.
  expectError("[scenario]\nname = \"x\"\n[run]\nprecompute = false\n", 4,
              "unknown key 'precompute'");
}

TEST(ScenarioFile, BadPolicySpecNamesFileAndLine) {
  expectError("[scenario]\nname = \"x\"\npolicy = \"guard:8.5\"\n", 3,
              "policy 'guard'");
  expectError("[scenario]\nname = \"x\"\npolicy = \"warp-speed\"\n", 3,
              "unknown policy 'warp-speed'");
}

TEST(ScenarioFile, DuplicateCellIdIsAnError) {
  expectError(
      "[scenario]\nname = \"x\"\n[network]\nrings = 1\n"
      "[cell 2]\ncapacity_bu = 50\n[cell 2]\ncapacity_bu = 60\n",
      7, "duplicate cell id 2");
}

TEST(ScenarioFile, CellSectionProblems) {
  expectError("[scenario]\nname = \"x\"\n[cell]\ncapacity_bu = 5\n", 3,
              "needs an id");
  expectError("[scenario]\nname = \"x\"\n[cell 0]\n", 3,
              "sets no keys");
  expectError("[scenario]\nname = \"x\"\n[cell 0]\nrings = 1\n", 4,
              "unknown key 'rings'");
  // Out-of-disk ids are a whole-file (validate-time) error: the disk size
  // is only known once [network] rings is final.
  expectError("[scenario]\nname = \"x\"\n[cell 7]\ncapacity_bu = 5\n", 0,
              "outside the 1-cell disk");
}

TEST(ScenarioFile, MalformedValuesAreErrors) {
  expectError("[scenario]\nname = \"x\"\n[run]\nrequests = many\n", 4,
              "expects an integer");
  expectError("[scenario]\nname = \"x\"\n[run]\nrequests = 1.5\n", 4,
              "expects an integer");
  expectError("[scenario]\nname = \"x\"\n[run]\nseed = -1\n", 4,
              "non-negative");
  expectError("[scenario]\nname = \"x\"\n[network]\nhandoffs = yes\n", 4,
              "expects true or false");
  expectError("[scenario]\nname = \"x\"\n[run]\narrivals = \"burst\"\n", 4,
              "uniform");
  expectError("[scenario]\nname = \"x\"\nsummary = unquoted\n", 3,
              "quoted string");
  // Strict string scanning: no silent garbage from malformed quoting.
  expectError("[scenario]\nname = \"a\" \"b\"\n", 2,
              "after the closing quote");
  expectError("[scenario]\nname = \"oops\\\"\n", 2, "unterminated");
  expectError("[scenario]\nname = \"x\"\nsummary = \"tail\\\n", 3,
              "dangling escape");
  expectError("[scenario]\nname = \"x\"\n[population]\nspeed_kmh = [1]\n", 4,
              "exactly 2");
  expectError(
      "[scenario]\nname = \"x\"\n[population]\nmix = [0.5, 0.2, 0.1]\n", 4,
      "sum");
  expectError("[scenario]\nname = \"x\"\n[population]\nmix = [1, 0, 0,]\n",
              4, "trailing comma");
  // Non-finite numbers are rejected at the line, not deep inside the run.
  expectError("[scenario]\nname = \"x\"\n[run]\nwarmup_s = nan\n", 4,
              "finite");
  expectError("[scenario]\nname = \"x\"\n[run]\nwindow_s = inf\n", 4,
              "finite");
}

TEST(ScenarioFile, StructuralProblemsAreErrors) {
  expectError("name = \"x\"\n", 1, "before any [section]");
  expectError("[scenario\nname = \"x\"\n", 1, "unterminated section");
  expectError("[scenario]\nname = \"x\"\nname = \"y\"\n", 3,
              "duplicate key 'name'");
  expectError("[scenario]\nname = \"x\"\n[scenario]\n", 3,
              "duplicate section");
  expectError("[scenario]\nname = \"x\"\njust words\n", 3,
              "expected 'key = value'");
  expectError("[scenario]\nname = \"x\"\nsummary =\n", 3, "no value");
  expectError("[scenario]\nsummary = \"no name\"\n", 0, "missing [scenario]");
  expectError("[scenario]\nname = \"\"\n", 2, "must not be empty");
}

TEST(ScenarioFile, InvalidConfigsFailAtParseTime) {
  // validateConfig() vocabulary, attributed to the file as a whole.
  expectError("[scenario]\nname = \"x\"\n[run]\nrequests = -4\n", 0,
              "total_requests");
  expectError("[scenario]\nname = \"x\"\n[run]\nshards = 0\n", 0, "shards");
  // Geometry too — a bad network must not survive to HexNetwork's ctor.
  expectError("[scenario]\nname = \"x\"\n[network]\nrings = -1\n", 0,
              "rings");
  expectError("[scenario]\nname = \"x\"\n[network]\ncell_radius_km = -1\n",
              0, "cell radius");
  expectError("[scenario]\nname = \"x\"\n[network]\ncapacity_bu = 0\n", 0,
              "capacity");
  // Absurd ring counts are capped before any cell math can overflow.
  expectError("[scenario]\nname = \"x\"\n[network]\nrings = 2000000000\n", 0,
              "rings");
}

TEST(ScenarioFile, OversizedGpsFixCountFailsAtLoad) {
  // 1e9 s of tracking at one fix per 1e-9 s: the fix count is capped at
  // validate time, before it could overflow an int or stall every call.
  try {
    (void)loadScenarioFile(
        std::string{FACS_TEST_DATA_DIR} + "/oversized-gps-fix-count.scenario",
        runtime());
    FAIL() << "expected ScenarioFileError";
  } catch (const ScenarioFileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("oversized-gps-fix-count.scenario"), std::string::npos)
        << what;
    EXPECT_NE(what.find("GPS fix count"), std::string::npos) << what;
  }
}

TEST(ScenarioFile, LineBreaksInStringsRoundTrip) {
  ScenarioSpec spec;
  spec.name = "multiline";
  spec.summary = "line1\nline2\r\nliteral \\n stays";
  const std::string text = writeScenarioFile(spec);
  const ScenarioSpec parsed = parseScenarioFile(text, runtime());
  EXPECT_EQ(parsed.summary, spec.summary);
  EXPECT_EQ(writeScenarioFile(parsed), text);

  // Even a line break in the NAME (legal in the string grammar) must not
  // leak out of the writer's header comment and break the fixed point.
  spec.name = "evil\nname";
  const std::string evil = writeScenarioFile(spec);
  const ScenarioSpec reparsed = parseScenarioFile(evil, runtime());
  EXPECT_EQ(reparsed.name, spec.name);
  EXPECT_EQ(writeScenarioFile(reparsed), evil);
}

TEST(ScenarioFile, LoadNamesThePathOnMissingFile) {
  try {
    (void)loadScenarioFile("/nonexistent/nowhere.scn", runtime());
    FAIL() << "expected ScenarioFileError";
  } catch (const ScenarioFileError& e) {
    EXPECT_NE(std::string{e.what()}.find("/nonexistent/nowhere.scn"),
              std::string::npos);
  }
}

TEST(ScenarioFile, ExternalPoliciesResolveThroughTheGivenRuntime) {
  // A file naming a registerExternal() policy parses against the extended
  // runtime and fails against the default one — the isolation the
  // instance-scoped design promises.
  cellular::PolicyRuntime extended;
  extended.registerExternal(
      {"plugin", "test stub", "plugin"},
      [](const cellular::PolicySpec&) -> ControllerFactory {
        return cellular::PolicyRuntime::defaultRuntime().makeFactory("cs");
      });
  const std::string text =
      "[scenario]\nname = \"plugged\"\npolicy = \"plugin\"\n";
  EXPECT_EQ(parseScenarioFile(text, extended).policy, "plugin");
  expectError(text, 3, "unknown policy 'plugin'");
}

TEST(ScenarioCatalogFiles, AddFileCataloguesAndRejectsDuplicates) {
  const std::string path = testing::TempDir() + "/catalogued.scn";
  {
    std::ofstream out{path};
    out << writeScenarioFile(ScenarioCatalog::builtins().at("highway"));
  }
  ScenarioCatalog catalog;
  EXPECT_THROW(catalog.addFile(path, runtime()), ScenarioError)
      << "duplicate of the built-in name must be rejected";

  ScenarioSpec renamed = ScenarioCatalog::builtins().at("highway");
  renamed.name = "highway-prime";
  {
    std::ofstream out{path};
    out << writeScenarioFile(renamed);
  }
  const ScenarioSpec& added = catalog.addFile(path, runtime());
  EXPECT_EQ(added.name, "highway-prime");
  EXPECT_TRUE(catalog.contains("highway-prime"));
  EXPECT_FALSE(ScenarioCatalog::builtins().contains("highway-prime"));

  // File-loaded entries run exactly like built-ins.
  SimulationConfig cfg = added.config;
  cfg.total_requests = 25;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  const Metrics from_catalog =
      runSimulation(cfg, runtime().makeFactory(added.policy));
  EXPECT_EQ(from_catalog.new_requests, 25);
}

// ----------------------------------------------- per-cell traffic overrides

TEST(ScenarioFile, PerCellTrafficOverridesParseAndRoundTrip) {
  const ScenarioSpec spec = parseScenarioFile(
      "[scenario]\nname = \"hotspot\"\npolicy = \"cs\"\n"
      "[network]\nrings = 1\n"
      "[cell 0]\ncapacity_bu = 80\narrival_scale = 3\nmix = [0, 0.25, 0.75]\n"
      "[cell 2]\narrival_scale = 0.5\n"
      "[cell 5]\nmix = [1, 0, 0]\n",
      runtime());
  ASSERT_EQ(spec.config.cell_overrides.size(), 3u);
  const CellOverride& hot = spec.config.cell_overrides[0];
  EXPECT_EQ(hot.cell, 0);
  EXPECT_EQ(hot.capacity_bu, 80);
  EXPECT_EQ(hot.arrival_scale, 3.0);
  ASSERT_TRUE(hot.mix.has_value());
  EXPECT_DOUBLE_EQ(hot.mix->fraction(cellular::ServiceClass::Video), 0.75);
  EXPECT_FALSE(spec.config.cell_overrides[1].capacity_bu.has_value());
  EXPECT_EQ(spec.config.cell_overrides[1].arrival_scale, 0.5);
  EXPECT_FALSE(spec.config.cell_overrides[2].arrival_scale.has_value());
  ASSERT_TRUE(spec.config.cell_overrides[2].mix.has_value());

  // Canonical-form fixed point, partial overrides included.
  const std::string text = writeScenarioFile(spec);
  EXPECT_EQ(writeScenarioFile(parseScenarioFile(text, runtime())), text);
}

TEST(ScenarioFile, PerCellMixShapesTheTraffic) {
  // Single-cell network, [cell 0] all-video: every arrival must be video
  // even though the population-wide mix is the paper's 60/30/10.
  const ScenarioSpec spec = parseScenarioFile(
      "[scenario]\nname = \"video-cell\"\npolicy = \"cs\"\n"
      "[run]\nrequests = 40\n"
      "[population]\ntracking_window_s = 0\ngps_error_m = none\n"
      "[cell 0]\nmix = [0, 0, 1]\n",
      runtime());
  const Metrics m =
      runSimulation(spec.config, runtime().makeFactory("cs"));
  EXPECT_EQ(m.class_requests[static_cast<std::size_t>(
                cellular::ServiceClass::Video)],
            40);
  EXPECT_EQ(m.class_requests[static_cast<std::size_t>(
                cellular::ServiceClass::Text)],
            0);
}

TEST(ScenarioFile, ArrivalScaleConcentratesSpawns) {
  // 7 cells; cell 0 weighted 1000:1. With per-cell capacity starved to 5
  // BU in cell 0 and no mobility, nearly every request lands there, so
  // blocking must be far above the uniform-spawn run's.
  const std::string hot_text =
      "[scenario]\nname = \"hot\"\npolicy = \"cs\"\n"
      "[network]\nrings = 1\n"
      "[run]\nrequests = 80\n"
      "[population]\ntracking_window_s = 0\ngps_error_m = none\n"
      "distance_km = [0, 1]\n"
      "[cell 0]\ncapacity_bu = 5\narrival_scale = 1000\n";
  const ScenarioSpec hot = parseScenarioFile(hot_text, runtime());
  ScenarioSpec uniform = hot;
  uniform.config.cell_overrides[0].arrival_scale.reset();
  const ControllerFactory cs = runtime().makeFactory("cs");
  const Metrics concentrated = runSimulation(hot.config, cs);
  const Metrics spread = runSimulation(uniform.config, cs);
  EXPECT_GT(concentrated.new_blocked, spread.new_blocked);

  // A scale of exactly 1 keeps the legacy uniform draw: bit-identical to
  // an entry with no scale at all.
  ScenarioSpec unit = hot;
  unit.config.cell_overrides[0].arrival_scale = 1.0;
  expectSameMetrics(runSimulation(unit.config, cs), spread,
                    "arrival_scale=1 vs absent");
}

TEST(ScenarioFile, PerCellOverrideErrors) {
  expectError(
      "[scenario]\nname = \"x\"\n[cell 0]\narrival_scale = 0\n", 0,
      "arrival scale for cell 0 must be positive and finite");
  expectError(
      "[scenario]\nname = \"x\"\n[cell 0]\narrival_scale = nope\n", 4,
      "arrival_scale expects a finite number");
  expectError("[scenario]\nname = \"x\"\n[cell 0]\nmix = [1, 1]\n", 4,
              "expects exactly 3 values");
  expectError("[scenario]\nname = \"x\"\n[cell 0]\nmix = [0.5, 0.1, 0.1]\n",
              4, "sum to 1");
}

// ------------------------------------------------------------------ extends

TEST(ScenarioFile, ExtendsStartsFromACatalogBase) {
  // In-memory parse: bases resolve against the built-in catalog. The
  // derived file inherits everything it does not override.
  const ScenarioSpec base = ScenarioCatalog::builtins().at("highway");
  const ScenarioSpec derived = parseScenarioFile(
      "[scenario]\nextends = \"highway\"\nname = \"highway-packed\"\n"
      "[run]\nrequests = 400\n",
      runtime());
  EXPECT_EQ(derived.name, "highway-packed");
  EXPECT_EQ(derived.summary, base.summary);
  EXPECT_EQ(derived.policy, base.policy);
  EXPECT_EQ(derived.config.rings, base.config.rings);
  EXPECT_EQ(derived.config.total_requests, 400);
  EXPECT_EQ(derived.config.arrival_window_s, base.config.arrival_window_s);
  // Without a name of its own the derived file keeps the base's.
  EXPECT_EQ(parseScenarioFile("[scenario]\nextends = \"highway\"\n",
                              runtime())
                .name,
            "highway");
}

TEST(ScenarioFile, ExtendsMustComeFirstAndNameKnownBases) {
  expectError("[scenario]\nname = \"x\"\nextends = \"highway\"\n", 3,
              "extends must be the first key");
  expectError("[network]\nrings = 1\n[scenario]\nextends = \"highway\"\n", 4,
              "extends must be the first key");
  expectError("[scenario]\nextends = \"no-such-base\"\n", 2,
              "unknown scenario");
  // Path spellings are rejected up front: a base is a scenario name (they
  // would also dodge the string-equality cycle detector — "./self" never
  // string-equals the chain entry it loops back to).
  expectError("[scenario]\nextends = \"./self\"\n", 2,
              "expects a scenario name, not a path");
  expectError("[scenario]\nextends = \"sub/../highway\"\n", 2,
              "expects a scenario name, not a path");
  expectError("[scenario]\nextends = \"\"\n", 2,
              "expects a scenario name");
}

TEST(ScenarioFile, ExtendsResolvesSiblingFilesAndDetectsCycles) {
  const std::string dir = testing::TempDir();
  {
    std::ofstream out{dir + "/family-base.scn"};
    out << "[scenario]\nname = \"family-base\"\npolicy = \"guard:8\"\n"
           "[network]\nrings = 1\n"
           "[run]\nrequests = 30\n"
           "[cell 0]\ncapacity_bu = 10\n"
           "[population]\ntracking_window_s = 0\ngps_error_m = none\n";
  }
  {
    std::ofstream out{dir + "/family-variant.scn"};
    out << "[scenario]\nextends = \"family-base\"\nname = \"variant\"\n"
           "[run]\nrequests = 60\n"
           "[cell 0]\ncapacity_bu = 20\narrival_scale = 2\n";
  }
  const ScenarioSpec variant =
      loadScenarioFile(dir + "/family-variant.scn", runtime());
  EXPECT_EQ(variant.name, "variant");
  EXPECT_EQ(variant.policy, "guard:8");
  EXPECT_EQ(variant.config.rings, 1);
  EXPECT_EQ(variant.config.total_requests, 60);
  // The derived [cell 0] section replaced the base's entry wholesale.
  ASSERT_EQ(variant.config.cell_overrides.size(), 1u);
  EXPECT_EQ(variant.config.cell_overrides[0].capacity_bu, 20);
  EXPECT_EQ(variant.config.cell_overrides[0].arrival_scale, 2.0);

  // A sibling chain that loops back on itself must fail with the chain in
  // the message, anchored at the extending file and line.
  {
    std::ofstream out{dir + "/loop-a.scn"};
    out << "[scenario]\nextends = \"loop-b\"\nname = \"loop-a\"\n";
  }
  {
    std::ofstream out{dir + "/loop-b.scn"};
    out << "[scenario]\nextends = \"loop-a\"\nname = \"loop-b\"\n";
  }
  try {
    (void)loadScenarioFile(dir + "/loop-a.scn", runtime());
    FAIL() << "expected a cycle error";
  } catch (const ScenarioFileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("extends cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("loop-b.scn:2"), std::string::npos)
        << "cycle should be reported at the extends key that closed it: "
        << what;
    EXPECT_NE(what.find("loop-a.scn"), std::string::npos) << what;
  }

  // Self-extension is the smallest cycle.
  {
    std::ofstream out{dir + "/loop-self.scn"};
    out << "[scenario]\nextends = \"loop-self\"\nname = \"self\"\n";
  }
  EXPECT_THROW((void)loadScenarioFile(dir + "/loop-self.scn", runtime()),
               ScenarioFileError);
}

TEST(ScenarioFile, ExtendedSpecsWriteFullyResolved) {
  // The canonical form of a derived scenario is self-contained: writing it
  // emits no extends key, and re-parsing reproduces it without needing the
  // base.
  const ScenarioSpec derived = parseScenarioFile(
      "[scenario]\nextends = \"highway\"\nname = \"resolved\"\n", runtime());
  const std::string text = writeScenarioFile(derived);
  EXPECT_EQ(text.find("extends"), std::string::npos);
  const ScenarioSpec reparsed = parseScenarioFile(text, runtime());
  EXPECT_EQ(writeScenarioFile(reparsed), text);
}

}  // namespace
}  // namespace facs::sim
