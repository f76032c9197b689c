/// \file pinned_window_test.cpp
/// Pins, bit for bit, a run whose windows are awkward on purpose
/// (tests/data/odd-period-mid-tick.scenario):
///
///  * the 0.7 s mobility period does not sum exactly in binary, so step
///    times drift off the k * 0.7 tick grid: some windows run a call's
///    step twice, and some steps land exactly on the end computed for
///    their window (the window must then be pushed one period on, or the
///    run never ends);
///  * an outage and a restore fire between ticks, so their windows are
///    clamped mid-tick and the outage leaves stale steps behind;
///  * weighted repartition epochs every 60 s (also off the grid) re-home
///    the event heaps and mover lists.
///
/// The expected values were recorded when the ziggurat normal and
/// sim/detmath.hpp replaced the polar normal and every libm call; before
/// that they matched the engine that kept mobility steps on the event
/// heap, given the same window-end rule. Any change to window boundaries,
/// step order or re-homing that moves an outcome shows up here.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cellular/policy_registry.hpp"
#include "sim/scenario_file.hpp"
#include "sim/simulator.hpp"

namespace facs::sim {
namespace {

struct PinnedRun {
  std::string json;
  std::uint64_t windows = 0;
  std::uint64_t engine_events = 0;
};

PinnedRun runPinned(int commit_groups, int shards) {
  const cellular::PolicyRuntime& runtime =
      cellular::PolicyRuntime::defaultRuntime();
  const ScenarioSpec spec = loadScenarioFile(
      std::string{FACS_TEST_DATA_DIR} + "/odd-period-mid-tick.scenario",
      runtime);
  SimulationConfig cfg = spec.config;
  cfg.commit_groups = commit_groups;
  cfg.shards = shards;
  PinnedRun run;
  ServiceHooks hooks;
  hooks.metrics_every_s = 0.0;  // one emission per barrier
  hooks.on_window = [&](const WindowSnapshot&) { ++run.windows; };
  const Metrics m = runSimulation(cfg, runtime.makeFactory(spec.policy), hooks);
  run.json = m.toJson();
  run.engine_events = m.engine_events;
  return run;
}

TEST(PinnedWindows, OneGroupMatchesTheRecordedRun) {
  const PinnedRun run = runPinned(1, 1);
  EXPECT_EQ(run.windows, 1519u);
  EXPECT_EQ(run.engine_events, 49924u);
  EXPECT_EQ(run.json, R"({
  "new_requests": 555,
  "new_accepted": 477,
  "new_blocked": 78,
  "handoff_requests": 544,
  "handoff_accepted": 533,
  "handoff_dropped": 11,
  "completed": 499,
  "class_requests": [337, 162, 56],
  "class_accepted": [304, 134, 39],
  "busy_bu_seconds": 108488.50040413906,
  "observed_span_s": 1037.70000000003,
  "total_capacity_bu": 760,
  "engine_events": 49924,
  "commit_groups": 1,
  "lane_events": [1655],
  "repartitions": 0,
  "repartitions_skipped": 0,
  "reservations_posted": 0,
  "reservations_admitted": 0,
  "reservations_dropped": 0,
  "demand_deltas": 0,
  "shadow_migrations": 0,
  "policy_warnings": 0,
  "mutations_applied": 2,
  "outage_forced_drops": 5,
  "peak_concurrent_calls": 129,
  "truncated_rationales": 0,
  "percent_accepted": 85.94594594594595,
  "blocking_probability": 0.14054054054054055,
  "dropping_probability": 0.02022058823529412,
  "mean_utilization": 0.13756194164743882
})");
}

TEST(PinnedWindows, FourGroupsMatchTheRecordedRunAtAnyShardCount) {
  for (const int shards : {1, 3}) {
    const PinnedRun run = runPinned(4, shards);
    EXPECT_EQ(run.windows, 1519u) << shards << " shards";
    EXPECT_EQ(run.engine_events, 51172u) << shards << " shards";
    EXPECT_EQ(run.json, R"({
  "new_requests": 555,
  "new_accepted": 485,
  "new_blocked": 70,
  "handoff_requests": 556,
  "handoff_accepted": 542,
  "handoff_dropped": 14,
  "completed": 504,
  "class_requests": [337, 162, 56],
  "class_accepted": [311, 135, 39],
  "busy_bu_seconds": 107651.31263235971,
  "observed_span_s": 1060,
  "total_capacity_bu": 760,
  "engine_events": 51172,
  "commit_groups": 4,
  "lane_events": [534, 556, 519, 420],
  "repartitions": 5,
  "repartitions_skipped": 10,
  "reservations_posted": 353,
  "reservations_admitted": 343,
  "reservations_dropped": 10,
  "demand_deltas": 0,
  "shadow_migrations": 0,
  "policy_warnings": 0,
  "mutations_applied": 2,
  "outage_forced_drops": 5,
  "peak_concurrent_calls": 134,
  "truncated_rationales": 0,
  "percent_accepted": 87.38738738738739,
  "blocking_probability": 0.12612612612612611,
  "dropping_probability": 0.025179856115107913,
  "mean_utilization": 0.13362873961315752
})") << shards << " shards";
  }
}

}  // namespace
}  // namespace facs::sim
