/// \file golden_digest_test.cpp
/// Makes "byte-identical" executable: FNV-1a digests of Metrics::toJson()
/// for three handoff-heavy built-in scenarios under four policies, at one
/// serial group and at 4 shards x 4 weighted groups with repartition epochs,
/// plus the digest of a whole `--serve` JSONL stream that crosses an outage
/// and a restore. An optimisation that claims to keep every output bit
/// must leave every digest here unchanged.
///
/// The OwedSteps cases pin runs where the mover sweep's deferred steps
/// (see mover_horizon_test.cpp) meet every other path: slot recycling,
/// ends, outage drops, cross-group handoffs and repartition re-homes.
///
/// The expected values were recorded from the engine that ran every
/// mobility step eagerly (physics and cellAt on every visit). A mismatch
/// prints the new digest; re-pin only for a change meant to move outputs.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "cellular/policy_registry.hpp"
#include "serve/service.hpp"
#include "sim/scenario_catalog.hpp"
#include "sim/scenario_file.hpp"
#include "sim/simulator.hpp"

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
  std::uint64_t serial;   ///< 1 shard x 1 group.
  std::uint64_t grouped;  ///< 4 x 4, weighted, repartition every 60 s.
};

constexpr GoldenCase kCases[] = {
    {"stadium-burst", "scc:reach=2",
     0x2595237d67be8d06ULL, 0x13b7e007eb768673ULL},
    {"stadium-burst", "sir",
     0x76212edd82209d12ULL, 0x0a06fedd6ff0de4eULL},
    {"stadium-burst", "rsv",
     0xb456bdb1fbddcab2ULL, 0x5722889f2c766c25ULL},
    {"stadium-burst", "facs",
     0x12d1c034b7c5c741ULL, 0xf48be1f42c81110eULL},
    {"urban-walkers", "scc:reach=2",
     0xf18932d27debb85bULL, 0x95fef567c4733e0dULL},
    {"urban-walkers", "sir",
     0xde02fc2716bc4739ULL, 0x657b99548b26061dULL},
    {"urban-walkers", "rsv",
     0xd9d8fa8d1fb2b809ULL, 0xc31641f06ee1a8b8ULL},
    {"urban-walkers", "facs",
     0x599085241e84e6d0ULL, 0x8b661de515fd29fdULL},
    {"highway", "scc:reach=2",
     0xeea4c65421b92120ULL, 0x7d6fdc5e943490a9ULL},
    {"highway", "sir",
     0x47dcc2ab0025e5b4ULL, 0x715423e1ddbb8e07ULL},
    {"highway", "rsv",
     0xe71e3bfa076eeb96ULL, 0xae850c011f2892adULL},
    {"highway", "facs",
     0xb438f04ec90e3f9dULL, 0x16690756a87c62afULL},
};

[[nodiscard]] std::uint64_t digestOf(const GoldenCase& c, bool grouped) {
  SimulationBuilder b = SimulationBuilder::scenario(c.scenario);
  b.policy(c.policy);
  if (grouped) {
    b.shards(4).commitGroups(4).partition(PartitionStrategy::Weighted)
        .repartitionEvery(60.0);
  }
  return fnv1a(b.run().toJson());
}

TEST(GoldenDigests, BuiltinScenariosAtOneGroup) {
  for (const GoldenCase& c : kCases) {
    EXPECT_EQ(digestOf(c, false), c.serial)
        << c.scenario << " / " << c.policy << std::hex << " digest 0x"
        << digestOf(c, false);
  }
}

TEST(GoldenDigests, BuiltinScenariosAtFourWeightedGroups) {
  for (const GoldenCase& c : kCases) {
    EXPECT_EQ(digestOf(c, true), c.grouped)
        << c.scenario << " / " << c.policy << std::hex << " digest 0x"
        << digestOf(c, true);
  }
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
  EXPECT_EQ(m.outage_forced_drops, 2);  // the outage really bit
  return digest;
}

TEST(GoldenDigests, ServeStreamThroughOutageAndRestore) {
  const std::uint64_t serial = serveStreamDigest(1, 1);
  EXPECT_EQ(serial, 0xab6799d671407c47ULL)
      << std::hex << "digest 0x" << serial;
  const std::uint64_t grouped = serveStreamDigest(3, 4);
  EXPECT_EQ(grouped, 0x4e9fa96eb3d61368ULL)
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
  EXPECT_EQ(fnv1a(m.toJson()), 0x1bf7a99604bed3faULL)
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
  EXPECT_EQ(stream, 0xf711cb2d3a1bbfffULL)
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
  EXPECT_EQ(stream, 0x101cbe1a2eb8feecULL)
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
      serveDigest(groupedConfig(1), "scc", 30.0, serial);
  EXPECT_GT(serial.reservations_posted, 50);
  EXPECT_GT(serial.repartitions, 0);
  EXPECT_EQ(stream, 0xa93b6df9e09080baULL)
      << std::hex << "digest 0x" << stream;
  Metrics sharded;
  EXPECT_EQ(serveDigest(groupedConfig(3), "scc", 30.0, sharded), stream);
  EXPECT_EQ(sharded.toJson(), serial.toJson());
}

}  // namespace
}  // namespace facs::sim
