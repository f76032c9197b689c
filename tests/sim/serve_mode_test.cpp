/// \file serve_mode_test.cpp
/// Streaming service mode, end to end: window snapshots aligned to the
/// engine's own barriers must reproduce the batch run bit for bit (the
/// equivalence contract in serve/service.hpp), mutation scripts must be
/// deterministic at any shard count, the call pool must stay flat under
/// long churn, and `[at T]` scenario-file sections must round-trip.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cellular/policy_registry.hpp"
#include "serve/service.hpp"
#include "sim/scenario_file.hpp"
#include "sim/simulator.hpp"

namespace facs::sim {
namespace {

ControllerFactory guardPolicy() {
  // O(1), cell-local decide: legal at any commit_groups count, so one
  // policy covers the whole shards x groups matrix.
  return cellular::PolicyRuntime::defaultRuntime().makeFactory("guard:8");
}

/// The sharding test's contested scenario: handoffs, GPS tracking, warmup
/// — every path a window barrier can cut through.
SimulationConfig contestedConfig() {
  SimulationConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_km = 2.0;
  cfg.total_requests = 120;
  cfg.arrival_window_s = 400.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.warmup_s = 50.0;
  cfg.seed = 20240731;
  cfg.scenario.speed_min_kmh = 30.0;
  cfg.scenario.speed_max_kmh = 110.0;
  cfg.scenario.distance_max_km = 2.0;
  cfg.scenario.tracking_window_s = 10.0;
  cfg.scenario.gps_fix_period_s = 2.0;
  cfg.scenario.gps_error_m = 10.0;
  return cfg;
}

/// Runs streamed and returns every snapshot in emission order.
std::vector<WindowSnapshot> streamRun(const SimulationConfig& cfg,
                                      double metrics_every_s,
                                      Metrics* final_out = nullptr) {
  std::vector<WindowSnapshot> windows;
  ServiceHooks hooks;
  hooks.metrics_every_s = metrics_every_s;
  hooks.on_window = [&](const WindowSnapshot& w) { windows.push_back(w); };
  const Metrics m = runSimulation(cfg, guardPolicy(), hooks);
  if (final_out) *final_out = m;
  return windows;
}

TEST(ServeMode, WindowSumsMatchBatchAtEveryShardGroupCombination) {
  for (const int shards : {1, 4}) {
    for (const int groups : {1, 4}) {
      SimulationConfig cfg = contestedConfig();
      cfg.shards = shards;
      cfg.commit_groups = groups;
      const std::string label = "shards=" + std::to_string(shards) +
                                " groups=" + std::to_string(groups);
      const Metrics batch = runSimulation(cfg, guardPolicy());
      Metrics streamed_final;
      const std::vector<WindowSnapshot> windows =
          streamRun(cfg, 60.0, &streamed_final);

      ASSERT_GE(windows.size(), 3u) << label;
      EXPECT_TRUE(windows.back().final_window) << label;
      // The last window's cumulative IS the batch result — bitwise, via
      // the canonical JSON form which prints shortest-round-trip doubles.
      EXPECT_EQ(windows.back().cumulative.toJson(), batch.toJson()) << label;
      EXPECT_EQ(streamed_final.toJson(), batch.toJson()) << label;

      // Windows chain without gaps and counters never move backwards, so
      // the integer deltas of all windows telescope exactly to the batch
      // totals.
      for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
        EXPECT_FALSE(windows[i].final_window) << label;
        EXPECT_EQ(windows[i].t1, windows[i + 1].t0) << label;
        EXPECT_LE(windows[i].cumulative.new_requests,
                  windows[i + 1].cumulative.new_requests)
            << label;
        EXPECT_LE(windows[i].cumulative.engine_events,
                  windows[i + 1].cumulative.engine_events)
            << label;
      }
      EXPECT_EQ(windows.back().cumulative.new_requests, batch.new_requests)
          << label;
      EXPECT_EQ(windows.back().cumulative.engine_events, batch.engine_events)
          << label;
    }
  }
}

TEST(ServeMode, WindowMetricsAreShardCountInvariant) {
  SimulationConfig base = contestedConfig();
  base.shards = 1;
  const std::vector<WindowSnapshot> serial = streamRun(base, 60.0);
  base.shards = 4;
  const std::vector<WindowSnapshot> sharded = streamRun(base, 60.0);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].t0, sharded[i].t0) << "window " << i;
    EXPECT_EQ(serial[i].t1, sharded[i].t1) << "window " << i;
    // Every window's metrics — not just the final one — is bit-identical
    // at any shard count (barrier times are pure functions of the config).
    EXPECT_EQ(serial[i].cumulative.toJson(), sharded[i].cumulative.toJson())
        << "window " << i;
  }
}

/// Drops the one line that reports the memory substrate, for comparisons
/// where the two runs legitimately hold different numbers of calls at
/// once (see NoHandoffRunsAreWindowedByTheEmissionPeriod).
std::string withoutPeakCalls(const std::string& json) {
  std::string out;
  std::istringstream in{json};
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("peak_concurrent_calls") == std::string::npos) {
      out += line + "\n";
    }
  }
  return out;
}

TEST(ServeMode, NoHandoffRunsAreWindowedByTheEmissionPeriod) {
  // Handoffs off = no natural barriers; the engine must window the run at
  // metrics_every_s instead — and stay outcome-neutral doing it. The one
  // legitimate difference is memory: the batch run materializes every
  // call of its single infinite window upfront, while the windowed run
  // only holds each window's calls — so its pool high-water (and thus
  // peak_concurrent_calls) is LOWER, which is the point of serving.
  SimulationConfig cfg;
  cfg.total_requests = 60;
  cfg.arrival_window_s = 500.0;
  cfg.seed = 11;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  const Metrics batch = runSimulation(cfg, guardPolicy());
  const std::vector<WindowSnapshot> windows = streamRun(cfg, 100.0);
  ASSERT_GE(windows.size(), 4u);
  EXPECT_EQ(withoutPeakCalls(windows.back().cumulative.toJson()),
            withoutPeakCalls(batch.toJson()));
  EXPECT_LT(windows.back().cumulative.peak_concurrent_calls,
            batch.peak_concurrent_calls);
}

TEST(ServeMode, JsonlStreamIsSeedStable) {
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 2;
  serve::ServeOptions options;
  options.metrics_every_s = 60.0;
  std::ostringstream first, second;
  (void)serve::serveSimulation(cfg, guardPolicy(), options, first);
  (void)serve::serveSimulation(cfg, guardPolicy(), options, second);
  EXPECT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());  // byte-for-byte repeatable
}

SimulationConfig mutatedConfig() {
  SimulationConfig cfg = contestedConfig();
  cfg.arrivals = ArrivalProcess::Poisson;
  serve::ScenarioMutation ramp;
  ramp.at_s = 120.0;
  ramp.op = serve::MutationOp::ArrivalScale;
  ramp.scale = 2.0;
  cfg.mutations.push_back(ramp);
  serve::ScenarioMutation outage;
  outage.at_s = 180.0;
  outage.op = serve::MutationOp::Outage;
  outage.cell = 0;  // the centre cell always has traffic
  cfg.mutations.push_back(outage);
  serve::ScenarioMutation restore = outage;
  restore.at_s = 260.0;
  restore.op = serve::MutationOp::Restore;
  cfg.mutations.push_back(restore);
  serve::ScenarioMutation mix;
  mix.at_s = 300.0;
  mix.op = serve::MutationOp::Mix;
  mix.mix = cellular::TrafficMix{0.2, 0.3, 0.5};
  cfg.mutations.push_back(mix);
  return cfg;
}

TEST(ServeMode, MutationScriptIsDeterministicAcrossShardCounts) {
  SimulationConfig cfg = mutatedConfig();
  cfg.shards = 1;
  Metrics serial_final;
  const std::vector<WindowSnapshot> serial =
      streamRun(cfg, 60.0, &serial_final);
  cfg.shards = 4;
  Metrics sharded_final;
  const std::vector<WindowSnapshot> sharded =
      streamRun(cfg, 60.0, &sharded_final);

  EXPECT_EQ(serial_final.mutations_applied, 4);
  EXPECT_GT(serial_final.outage_forced_drops, 0);  // the outage really bit
  EXPECT_EQ(serial_final.toJson(), sharded_final.toJson());
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].cumulative.toJson(), sharded[i].cumulative.toJson())
        << "window " << i;
    EXPECT_EQ(serial[i].stats.mutations_applied,
              sharded[i].stats.mutations_applied)
        << "window " << i;
  }
}

TEST(ServeMode, OutageDropsCallsAndBlocksAdmissions) {
  SimulationConfig plain = mutatedConfig();
  plain.mutations.clear();
  const Metrics undisturbed = runSimulation(plain, guardPolicy());
  const Metrics disturbed = runSimulation(mutatedConfig(), guardPolicy());
  EXPECT_EQ(undisturbed.outage_forced_drops, 0);
  EXPECT_GT(disturbed.outage_forced_drops, 0);
  // A downed centre cell (plus the doubled arrival rate) must refuse
  // admissions the undisturbed run accepted.
  EXPECT_GT(disturbed.new_blocked, undisturbed.new_blocked);
}

TEST(ServeMode, CallPoolStaysFlatUnderLongChurn) {
  // The regression this subsystem fixes: per-call storage used to be
  // append-only, so a long run grew without bound. Now slots recycle at
  // release — thousands of sequential calls must reuse a handful of
  // slots, and slab growth must stop after warmup.
  SimulationConfig cfg;
  cfg.total_requests = 2000;
  cfg.arrival_window_s = 20000.0;  // sparse: low concurrency, high churn
  cfg.seed = 5;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  Metrics final_metrics;
  const std::vector<WindowSnapshot> windows =
      streamRun(cfg, 1000.0, &final_metrics);

  EXPECT_EQ(final_metrics.new_requests, 2000);
  // Memory is proportional to CONCURRENT calls, not cumulative calls.
  EXPECT_LT(final_metrics.peak_concurrent_calls, 200u);
  ASSERT_GE(windows.size(), 10u);
  const EngineWindowStats& warm = windows[2].stats;
  EXPECT_EQ(warm.pool_grow_events, 1u);  // a single slab covers the run
  for (std::size_t i = 3; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].stats.pool_grow_events, warm.pool_grow_events)
        << "window " << i << " allocated after warmup";
    EXPECT_EQ(windows[i].stats.pool_capacity, warm.pool_capacity)
        << "window " << i;
  }
  const EngineWindowStats& last = windows.back().stats;
  EXPECT_EQ(last.pool_acquired, 2000u);
  EXPECT_EQ(last.pool_released, 2000u);  // every slot returned by drain
  EXPECT_EQ(last.pool_live, 0u);
}

TEST(ServeMode, DurationModeServesPastTheConfiguredRequestCount) {
  SimulationConfig cfg;
  cfg.total_requests = 10;  // in duration mode this is only the RATE
  cfg.arrival_window_s = 100.0;
  cfg.arrivals = ArrivalProcess::Poisson;
  cfg.seed = 3;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  ServiceHooks hooks;
  hooks.metrics_every_s = 200.0;
  hooks.serve_duration_s = 2000.0;
  int windows = 0;
  hooks.on_window = [&](const WindowSnapshot&) { ++windows; };
  const Metrics m = runSimulation(cfg, guardPolicy(), hooks);
  // 0.1 calls/s for 2000 s: far more than 10 arrivals, fully drained.
  EXPECT_GT(m.new_requests, 100);
  EXPECT_EQ(m.new_accepted, m.completed);
  EXPECT_GE(windows, 10);
}

TEST(ServeMode, DurationModeRequiresPoissonArrivals) {
  SimulationConfig cfg;
  cfg.total_requests = 10;
  cfg.arrival_window_s = 100.0;  // uniform burst: no rate to keep running
  ServiceHooks hooks;
  hooks.serve_duration_s = 500.0;
  hooks.on_window = [](const WindowSnapshot&) {};
  EXPECT_THROW((void)runSimulation(cfg, guardPolicy(), hooks),
               std::invalid_argument);
}

// ------------------------------------------------------ [at T] sections

const cellular::PolicyRuntime& runtime() {
  return cellular::PolicyRuntime::defaultRuntime();
}

TEST(ServeScenarioFile, AtSectionsParseIntoMutations) {
  const ScenarioSpec spec = parseScenarioFile(R"(
[scenario]
name = "muted"

[network]
rings = 1

[run]
arrivals = "poisson"

[at 120]
arrival_scale = 2.5

[at 300]
cell = 3
outage = true

[at 360]
cell = 3
restore = true

[at 400]
mix = [0.2, 0.3, 0.5]
)",
                                              runtime());
  ASSERT_EQ(spec.config.mutations.size(), 4u);
  EXPECT_EQ(spec.config.mutations[0].at_s, 120.0);
  EXPECT_EQ(spec.config.mutations[0].op, serve::MutationOp::ArrivalScale);
  EXPECT_EQ(spec.config.mutations[0].scale, 2.5);
  EXPECT_FALSE(spec.config.mutations[0].cell.has_value());
  EXPECT_EQ(spec.config.mutations[1].op, serve::MutationOp::Outage);
  EXPECT_EQ(spec.config.mutations[1].cell, cellular::CellId{3});
  EXPECT_EQ(spec.config.mutations[2].op, serve::MutationOp::Restore);
  EXPECT_EQ(spec.config.mutations[3].op, serve::MutationOp::Mix);
  ASSERT_TRUE(spec.config.mutations[3].mix.has_value());
}

TEST(ServeScenarioFile, AtSectionsSurviveTheWriteParseRoundTrip) {
  ScenarioSpec spec;
  spec.name = "roundtrip";
  spec.config = mutatedConfig();
  const std::string text = writeScenarioFile(spec);
  const ScenarioSpec back = parseScenarioFile(text, runtime());
  ASSERT_EQ(back.config.mutations.size(), spec.config.mutations.size());
  for (std::size_t i = 0; i < spec.config.mutations.size(); ++i) {
    const serve::ScenarioMutation& a = spec.config.mutations[i];
    const serve::ScenarioMutation& b = back.config.mutations[i];
    EXPECT_EQ(a.at_s, b.at_s) << "mutation " << i;
    EXPECT_EQ(a.op, b.op) << "mutation " << i;
    EXPECT_EQ(a.cell, b.cell) << "mutation " << i;
    EXPECT_EQ(a.scale, b.scale) << "mutation " << i;
    EXPECT_EQ(a.mix.has_value(), b.mix.has_value()) << "mutation " << i;
  }
  // Canonical-form fixed point: writing the reparsed spec reproduces the
  // text byte for byte, [at] sections included.
  EXPECT_EQ(writeScenarioFile(back), text);
}

TEST(ServeScenarioFile, AtSectionWithNoActionIsAnError) {
  EXPECT_THROW((void)parseScenarioFile(R"(
[scenario]
name = "x"

[at 120]
cell = 2
)",
                                       runtime()),
               ScenarioFileError);
}

TEST(ServeScenarioFile, AtSectionWithTwoActionsIsAnError) {
  EXPECT_THROW((void)parseScenarioFile(R"(
[scenario]
name = "x"

[run]
arrivals = "poisson"

[at 120]
arrival_scale = 2
outage = true
)",
                                       runtime()),
               ScenarioFileError);
}

TEST(ServeScenarioFile, OutageWithoutCellFailsValidation) {
  EXPECT_THROW((void)parseScenarioFile(R"(
[scenario]
name = "x"

[at 120]
outage = true
)",
                                       runtime()),
               ScenarioFileError);
}

TEST(ServeScenarioFile, GlobalArrivalScaleNeedsPoissonAtParseTime) {
  // The default arrival process is a uniform burst — a global rate ramp
  // must be rejected when the file is validated, not when the run starts.
  EXPECT_THROW((void)parseScenarioFile(R"(
[scenario]
name = "x"

[at 120]
arrival_scale = 2
)",
                                       runtime()),
               ScenarioFileError);
}

}  // namespace
}  // namespace facs::sim
