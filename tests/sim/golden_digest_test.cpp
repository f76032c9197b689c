/// \file golden_digest_test.cpp
/// Makes "byte-identical" executable: FNV-1a digests of Metrics::toJson()
/// for three handoff-heavy built-in scenarios under four policies at one
/// serial group, and under the cell-local `facs` at 4 shards x 4 weighted
/// groups with repartition epochs, plus the digest of a whole `--serve`
/// JSONL stream that crosses an outage and a restore. The policies that
/// read other cells run on one group whatever the configuration asks, so
/// their 4 x 4 runs must print their 1 x 1 output. An optimisation that
/// claims to keep every output bit must leave every digest here unchanged.
///
/// The OwedSteps cases pin runs where the mover sweep's deferred steps
/// (see mover_horizon_test.cpp) meet every other path: slot recycling,
/// ends, outage drops, cross-group handoffs and repartition re-homes.
///
/// The expected values were recorded when the ziggurat normal and
/// sim/detmath.hpp replaced the polar normal and every libm call; the
/// values before them matched the engine that ran every mobility step
/// eagerly (physics and cellAt on every visit). A mismatch prints the new
/// digest; re-pin only for a change meant to move outputs.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "cellular/policy_registry.hpp"
#include "run_policy.hpp"
#include "serve/service.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario_catalog.hpp"
#include "sim/scenario_file.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace facs::sim {
namespace {

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

struct GoldenCase {
  std::string_view scenario;
  std::string_view policy;
  std::uint64_t digest;
};

/// At 1 shard x 1 group.
constexpr GoldenCase kCases[] = {
    {"stadium-burst", "scc:reach=2", 0xb9c2dcbb53fb41a3ULL},
    {"stadium-burst", "sir", 0x17223c59099009e0ULL},
    {"stadium-burst", "rsv", 0x1d91aa2cc533c9fbULL},
    {"stadium-burst", "facs", 0x1660c74a3b76f4dcULL},
    {"urban-walkers", "scc:reach=2", 0x4da630e9c291bc4dULL},
    {"urban-walkers", "sir", 0x9272ac8c4bf7083fULL},
    {"urban-walkers", "rsv", 0xf04882e23585dc3aULL},
    {"urban-walkers", "facs", 0xe77c98def7337e61ULL},
    {"highway", "scc:reach=2", 0x8f21b55d3a4736f1ULL},
    {"highway", "sir", 0x9cbbea04faa97d22ULL},
    {"highway", "rsv", 0x4d1537d99bafbc8cULL},
    {"highway", "facs", 0x0cc9a1880993fab4ULL},
};

/// The cell-local `facs` at 4 x 4, weighted, repartition every 60 s.
constexpr GoldenCase kGroupedCases[] = {
    {"stadium-burst", "facs", 0x6e0c1a4ae0a89042ULL},
    {"urban-walkers", "facs", 0xa25f14a4b061b2a5ULL},
    {"highway", "facs", 0x85c524b1104232eeULL},
};

[[nodiscard]] std::string jsonOf(std::string_view scenario,
                                 std::string_view policy, bool grouped) {
  SimulationConfig cfg = ScenarioCatalog::builtins().at(scenario).config;
  if (grouped) {
    cfg.shards = 4;
    cfg.commit_groups = 4;
    cfg.partition = PartitionStrategy::Weighted;
    cfg.repartition_every_s = 60.0;
  }
  return runPolicy(cfg, policy).toJson();
}

TEST(GoldenDigests, BuiltinScenariosAtOneGroup) {
  for (const GoldenCase& c : kCases) {
    const std::uint64_t digest = fnv1a(jsonOf(c.scenario, c.policy, false));
    EXPECT_EQ(digest, c.digest) << c.scenario << " / " << c.policy
                                << std::hex << " digest 0x" << digest;
  }
}

TEST(GoldenDigests, BuiltinScenariosAtFourWeightedGroups) {
  for (const GoldenCase& c : kGroupedCases) {
    const std::uint64_t digest = fnv1a(jsonOf(c.scenario, c.policy, true));
    EXPECT_EQ(digest, c.digest) << c.scenario << " / " << c.policy
                                << std::hex << " digest 0x" << digest;
  }
}

/// `scc`, `sir` and `rsv` read other cells, so the engine runs them on one
/// group: at 3 shards x 4 weighted groups with repartition epochs they
/// print the 1 x 1 output byte for byte.
TEST(GoldenDigests, CrossCellPoliciesAtFourGroupsMatchOneGroup) {
  for (const std::string_view scenario :
       {"highway", "urban-walkers", "stadium-burst"}) {
    for (const std::string_view policy : {"scc", "scc:reach=2", "sir", "rsv"}) {
      const SimulationConfig serial =
          ScenarioCatalog::builtins().at(scenario).config;
      SimulationConfig grouped = serial;
      grouped.shards = 3;
      grouped.commit_groups = 4;
      grouped.partition = PartitionStrategy::Weighted;
      grouped.repartition_every_s = 60.0;
      EXPECT_EQ(runPolicy(grouped, policy).toJson(),
                runPolicy(serial, policy).toJson())
          << scenario << " / " << policy;
    }
  }
}

/// FACS with product implication and probabilistic-OR aggregation, the one
/// operator family whose aggregated output curve is not piecewise linear,
/// under every defuzzifier. Each term's apex is sharp under product
/// implication, which the max family must read as a point.
struct ProdCase {
  std::string_view scenario;
  std::string_view policy;
  std::uint64_t serial;  ///< 1 shard x 1 group.
};

constexpr ProdCase kProdCases[] = {
    {"highway", "facs:ops=prod,defuzz=centroid", 0xffef0ea580d9861eULL},
    {"highway", "facs:ops=prod,defuzz=bisector", 0x7aa6c490b72ca8beULL},
    {"highway", "facs:ops=prod,defuzz=mom", 0x0d1d79f0d0bbd3e4ULL},
    {"highway", "facs:ops=prod,defuzz=som", 0x5a4457c9651586f5ULL},
    {"highway", "facs:ops=prod,defuzz=lom", 0x0d1d79f0d0bbd3e4ULL},
    {"urban-walkers", "facs:ops=prod,defuzz=centroid", 0xe77c98def7337e61ULL},
    {"urban-walkers", "facs:ops=prod,defuzz=bisector", 0xe77c98def7337e61ULL},
    {"urban-walkers", "facs:ops=prod,defuzz=mom", 0xb11bc0578075e184ULL},
    {"urban-walkers", "facs:ops=prod,defuzz=som", 0xe522157ad86a4b24ULL},
    {"urban-walkers", "facs:ops=prod,defuzz=lom", 0xb11bc0578075e184ULL},
};

TEST(GoldenDigests, ProdOperatorsAtOneGroup) {
  for (const ProdCase& c : kProdCases) {
    const std::uint64_t digest = fnv1a(
        runPolicy(ScenarioCatalog::builtins().at(c.scenario).config, c.policy)
            .toJson());
    EXPECT_EQ(digest, c.serial) << c.scenario << " / " << c.policy
                                << std::hex << " digest 0x" << digest;
  }
}

/// A small Fig. 10 sweep (FACS against SCC, as bench/fig10_facs_vs_scc.cpp
/// sets them up) as printJson prints it. Its GPS walks, shadow kernels and
/// FLC engines run every function of sim/detmath.hpp, so this digest is the
/// one a change of C math library, or of the kernel glibc dispatches to,
/// would move. CTest runs this suite a second time with glibc's AVX2 and
/// FMA kernels switched off (facs_tests_libm_dispatch).
TEST(GoldenDigests, Fig10SweepJson) {
  SweepSpec sweep;
  sweep.xs = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  sweep.replications = 50;
  sweep.base_seed = 1;
  sweep.threads = 2;
  SimulationConfig base;
  base.rings = 1;
  base.scenario = fig10Scenario();
  base.arrival_window_s = 600.0 / 7.0;
  const auto curve = [&](std::string label, const std::string& spec) {
    CurveSpec c;
    c.label = std::move(label);
    c.base = base;
    c.make_controller =
        cellular::PolicyRuntime::defaultRuntime().makeFactory(spec);
    return c;
  };
  std::ostringstream json;
  printJson(json,
            runSweep(sweep, {curve("FACS", "facs"),
                             curve("SCC", "scc:theta=0.85,sigma=8,growth=0,"
                                          "intervals=3")}));
  const std::uint64_t digest = fnv1a(json.str());
  EXPECT_EQ(digest, 0x7b7ec828565276eaULL)
      << std::hex << "digest 0x" << digest;
}

/// Serves \p cfg under \p spec and returns the digest of its JSONL
/// stream; the final metrics land in \p final_out.
[[nodiscard]] std::uint64_t serveDigest(const SimulationConfig& cfg,
                                        const std::string& spec,
                                        double metrics_every_s,
                                        Metrics& final_out) {
  serve::ServeOptions options;
  options.metrics_every_s = metrics_every_s;
  std::ostringstream out;
  final_out = serve::serveSimulation(
      cfg, cellular::PolicyRuntime::defaultRuntime().makeFactory(spec),
      options, out);
  return fnv1a(out.str());
}

/// The whole JSONL stream of tests/data/odd-period-mid-tick.scenario: an
/// outage and a restore between ticks, repartition epochs at 4 groups.
[[nodiscard]] std::uint64_t serveStreamDigest(int shards, int groups) {
  const ScenarioSpec spec = loadScenarioFile(
      std::string{FACS_TEST_DATA_DIR} + "/odd-period-mid-tick.scenario",
      cellular::PolicyRuntime::defaultRuntime());
  SimulationConfig cfg = spec.config;
  cfg.shards = shards;
  cfg.commit_groups = groups;
  Metrics m;
  const std::uint64_t digest = serveDigest(cfg, spec.policy, 10.0, m);
  EXPECT_EQ(m.outage_forced_drops, 5);  // the outage really bit
  return digest;
}

TEST(GoldenDigests, ServeStreamThroughOutageAndRestore) {
  const std::uint64_t serial = serveStreamDigest(1, 1);
  EXPECT_EQ(serial, 0xed44e71a1c595be9ULL)
      << std::hex << "digest 0x" << serial;
  const std::uint64_t grouped = serveStreamDigest(3, 4);
  EXPECT_EQ(grouped, 0xdfa3242033244fcdULL)
      << std::hex << "digest 0x" << grouped;
}

/// Mixed speeds (parked to 60 km/h) in 0.5 km cells, one call at a time
/// on average: thousands of calls pass through a handful of recycled
/// slots, each previous occupant typically ending while it owed steps.
[[nodiscard]] SimulationConfig churnConfig() {
  SimulationConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_km = 0.5;
  cfg.total_requests = 1500;
  cfg.arrival_window_s = 90000.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 1.0;
  cfg.seed = 77;
  cfg.scenario.speed_min_kmh = 0.0;
  cfg.scenario.speed_max_kmh = 60.0;
  cfg.scenario.distance_max_km = 0.5;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  return cfg;
}

TEST(OwedSteps, RecycledSlotsStartWithoutAHorizon) {
  const SimulationConfig cfg = churnConfig();
  std::uint64_t acquired = 0;
  ServiceHooks hooks;
  hooks.metrics_every_s = 3000.0;
  hooks.on_window = [&](const WindowSnapshot& w) {
    acquired = w.stats.pool_acquired;
  };
  const Metrics m = runSimulation(
      cfg, cellular::PolicyRuntime::defaultRuntime().makeFactory("guard:8"),
      hooks);
  EXPECT_EQ(acquired, 1500u);
  EXPECT_LT(m.peak_concurrent_calls, 20u);  // slots are reused many times
  EXPECT_GT(m.handoff_requests, 100);
  EXPECT_EQ(fnv1a(m.toJson()), 0xc5b49ee62c132e6aULL)
      << std::hex << "digest 0x" << fnv1a(m.toJson());
}

/// Walkers (0-3 km/h) in 2 km cells: a step covers under a metre, so
/// horizons run to hundreds of steps and nearly every call ends, or is
/// dropped, while it owes steps it never computes.
[[nodiscard]] SimulationConfig walkerConfig() {
  SimulationConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_km = 2.0;
  cfg.total_requests = 400;
  cfg.arrival_window_s = 600.0;
  cfg.arrivals = ArrivalProcess::Poisson;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 1.0;
  cfg.seed = 31;
  cfg.scenario.speed_min_kmh = 0.0;
  cfg.scenario.speed_max_kmh = 3.0;
  cfg.scenario.distance_max_km = 2.0;
  cfg.scenario.tracking_window_s = 10.0;
  cfg.scenario.gps_fix_period_s = 2.0;
  return cfg;
}

TEST(OwedSteps, CallsEndWhileOwingSteps) {
  Metrics m;
  const std::uint64_t stream = serveDigest(walkerConfig(), "sir", 30.0, m);
  EXPECT_GT(m.completed, 300);
  EXPECT_GT(m.handoff_requests, 0);  // some walkers still cross
  EXPECT_EQ(stream, 0x7720cbd70987e035ULL)
      << std::hex << "digest 0x" << stream;
}

TEST(OwedSteps, OutageDropsCallsOwingSteps) {
  SimulationConfig cfg = walkerConfig();
  serve::ScenarioMutation outage;
  outage.at_s = 200.0;
  outage.op = serve::MutationOp::Outage;
  outage.cell = 0;
  cfg.mutations.push_back(outage);
  serve::ScenarioMutation restore = outage;
  restore.at_s = 400.0;
  restore.op = serve::MutationOp::Restore;
  cfg.mutations.push_back(restore);
  Metrics m;
  const std::uint64_t stream = serveDigest(cfg, "sir", 30.0, m);
  EXPECT_EQ(m.mutations_applied, 2);
  EXPECT_GT(m.outage_forced_drops, 5);
  EXPECT_EQ(stream, 0x8d132f40d478a626ULL)
      << std::hex << "digest 0x" << stream;
}

/// 19 small cells at 4 weighted groups with 30 s repartition epochs:
/// owed steps cross group borders inside reservations and ride re-homed
/// mover lists.
[[nodiscard]] SimulationConfig groupedConfig(int shards) {
  SimulationConfig cfg;
  cfg.rings = 2;
  cfg.cell_radius_km = 0.4;
  cfg.capacity_bu = 40;
  cfg.total_requests = 600;
  cfg.arrival_window_s = 240.0;
  cfg.arrivals = ArrivalProcess::Poisson;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 1.0;
  cfg.seed = 19;
  cfg.shards = shards;
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  cfg.repartition_every_s = 30.0;
  cfg.scenario.speed_min_kmh = 0.0;
  cfg.scenario.speed_max_kmh = 90.0;
  cfg.scenario.distance_max_km = 0.8;
  cfg.scenario.tracking_window_s = 4.0;
  cfg.scenario.gps_fix_period_s = 2.0;
  return cfg;
}

TEST(OwedSteps, CrossGroupHandoffsAndReHomesAtFourGroups) {
  Metrics serial;
  const std::uint64_t stream =
      serveDigest(groupedConfig(1), "guard:8", 30.0, serial);
  EXPECT_GT(serial.reservations_posted, 50);
  EXPECT_GT(serial.repartitions, 0);
  EXPECT_EQ(stream, 0x3a30aa7056ce8922ULL)
      << std::hex << "digest 0x" << stream;
  Metrics sharded;
  EXPECT_EQ(serveDigest(groupedConfig(3), "guard:8", 30.0, sharded), stream);
  EXPECT_EQ(sharded.toJson(), serial.toJson());
}

}  // namespace
}  // namespace facs::sim
