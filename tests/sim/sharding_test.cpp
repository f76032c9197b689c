/// \file sharding_test.cpp
/// Determinism contract of the sharded engine: for a fixed seed, the
/// serial run (shards=1) and every sharded run must produce bit-identical
/// metrics — the worker count may only change how much work runs
/// concurrently, never a single simulation outcome. Double fields are
/// compared with exact equality on purpose: "close" would hide
/// nondeterministic commit ordering.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "cellular/policy_registry.hpp"
#include "core/facs.hpp"
#include "run_policy.hpp"
#include "sim/scenario_catalog.hpp"
#include "sim/simulator.hpp"

namespace facs::sim {
namespace {

/// A multi-cell scenario exercising every cross-shard path: GPS-tracked
/// decisions, handoffs (accepted and dropped), coverage exits, warmup.
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

void expectBitIdentical(const Metrics& a, const Metrics& b,
                        const std::string& label) {
  EXPECT_EQ(a.new_requests, b.new_requests) << label;
  EXPECT_EQ(a.new_accepted, b.new_accepted) << label;
  EXPECT_EQ(a.new_blocked, b.new_blocked) << label;
  EXPECT_EQ(a.handoff_requests, b.handoff_requests) << label;
  EXPECT_EQ(a.handoff_accepted, b.handoff_accepted) << label;
  EXPECT_EQ(a.handoff_dropped, b.handoff_dropped) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.class_requests, b.class_requests) << label;
  EXPECT_EQ(a.class_accepted, b.class_accepted) << label;
  // Exact double equality: the busy integral accumulates every occupancy
  // change in commit order, so one reordered event would surface here.
  EXPECT_EQ(a.busy_bu_seconds, b.busy_bu_seconds) << label;
  EXPECT_EQ(a.observed_span_s, b.observed_span_s) << label;
  EXPECT_EQ(a.total_capacity_bu, b.total_capacity_bu) << label;
  EXPECT_EQ(a.engine_events, b.engine_events) << label;
  EXPECT_EQ(a.truncated_rationales, b.truncated_rationales) << label;
}

TEST(ShardedEngine, BitIdenticalAcrossShardCountsFacs) {
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 1;
  const Metrics serial = runPolicy(cfg, "facs");
  ASSERT_GT(serial.handoff_requests, 0);  // the scenario must exercise shards
  ASSERT_GT(serial.engine_events, 0u);
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = runPolicy(cfg, "facs");
    expectBitIdentical(serial, m, "facs shards=" + std::to_string(shards));
  }
}

TEST(ShardedEngine, BitIdenticalAcrossShardCountsScc) {
  // SCC is the hardest case: controller state spans cells (the shadow
  // accumulators), so any commit reordering would change decisions.
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 1;
  const Metrics serial = runPolicy(cfg, "scc");
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = runPolicy(cfg, "scc");
    expectBitIdentical(serial, m, "scc shards=" + std::to_string(shards));
  }
}

TEST(ShardedEngine, RepeatedShardedRunsAreSeedStable) {
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 4;
  const Metrics a = runPolicy(cfg, "facs");
  const Metrics b = runPolicy(cfg, "facs");
  expectBitIdentical(a, b, "two shards=4 runs");
}

TEST(ShardedEngine, MoreShardsThanCellsStillIdentical) {
  // Extra shards own no cells but still take part in per-call preparation.
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 1;
  const Metrics serial = runPolicy(cfg, "guard:8");
  cfg.shards = 16;  // 7 cells only
  const Metrics wide = runPolicy(cfg, "guard:8");
  expectBitIdentical(serial, wide, "shards=16 over 7 cells");
}

TEST(ShardedEngine, SingleCellRunsShardToo) {
  // Sharding a single-cell scenario parallelizes request preparation only;
  // results still must not move.
  SimulationConfig cfg;
  cfg.total_requests = 80;
  cfg.seed = 9;
  cfg.shards = 1;
  const Metrics serial = runPolicy(cfg, "facs");
  cfg.shards = 4;
  const Metrics sharded = runPolicy(cfg, "facs");
  expectBitIdentical(serial, sharded, "single cell shards=4");
}

// ---------------------------------------------------------------------------
// Precompute equivalence: hoisting the snapshot-only FLC1 stage into the
// parallel prepare/local phases must not move a single bit of any metric —
// it is the same inference over the same snapshot, just executed off the
// serialized commit path. The reference keeps FLC1 inline.
// ---------------------------------------------------------------------------

/// FACS with FLC1 left on the commit path: forwards decide() to a
/// FacsController but keeps the default (invalid) precompute(), so every
/// decision runs the prediction inline. Counts the decisions it sees and
/// how many arrived with a predicted CV (the engine must never invent one).
class InlineFlc1Facs final : public cellular::AdmissionController {
 public:
  static inline std::atomic<int> decisions{0};
  static inline std::atomic<int> with_predicted{0};

  [[nodiscard]] std::string name() const override { return "FACS-inline"; }
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override {
    ++decisions;
    if (context.predicted.valid) ++with_predicted;
    return facs_.decide(request, context);
  }

 private:
  core::FacsController facs_;
};

/// The default runtime plus "facs-inline" (InlineFlc1Facs).
const cellular::PolicyRuntime& inlineRuntime() {
  static const cellular::PolicyRuntime runtime = [] {
    cellular::PolicyRuntime rt;
    rt.registerExternal(
        {"facs-inline", "FACS with FLC1 inline (test reference)",
         "facs-inline"},
        [](const cellular::PolicySpec&) -> ControllerFactory {
          return [](const cellular::HexNetwork&) {
            return std::make_unique<InlineFlc1Facs>();
          };
        });
    return rt;
  }();
  return runtime;
}

Metrics runInlineFlc1(const SimulationConfig& cfg) {
  return runPolicy(cfg, "facs-inline", inlineRuntime());
}

TEST(PrecomputeEquivalence, BitIdenticalOnVsOffAcrossShardCounts) {
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 1;
  const Metrics inline_flc1 = runInlineFlc1(cfg);
  // The scenario must include handoffs: each one is a mobility update that
  // invalidates the CV prepared at request time, forcing the local phase
  // to re-run the prediction against the post-step snapshot.
  ASSERT_GT(inline_flc1.handoff_requests, 0);
  for (const int shards : {1, 2, 4}) {
    cfg.shards = shards;
    const Metrics hoisted = runPolicy(cfg, "facs");
    expectBitIdentical(inline_flc1, hoisted,
                       "precompute on, shards=" + std::to_string(shards));
  }
}

TEST(PrecomputeEquivalence, MobilityInvalidatedCvRecomputesBeforeCommit) {
  // High speed + tiny cells: nearly every call crosses a boundary, so the
  // dominant decision flavour is a handoff whose snapshot (and therefore
  // whose CV) only exists after the mobility step that detected the
  // crossing. If the engine served the stale request-time CV instead of
  // re-running the prediction, these decisions would diverge from the
  // inline-FLC1 run and the comparison below would fail.
  SimulationConfig cfg = contestedConfig();
  cfg.cell_radius_km = 1.0;
  cfg.scenario.speed_min_kmh = 80.0;
  cfg.scenario.speed_max_kmh = 120.0;
  cfg.shards = 1;
  const Metrics inline_flc1 = runInlineFlc1(cfg);
  ASSERT_GT(inline_flc1.handoff_requests, inline_flc1.new_requests / 2);
  for (const int shards : {1, 4}) {
    cfg.shards = shards;
    const Metrics hoisted = runPolicy(cfg, "facs");
    expectBitIdentical(inline_flc1, hoisted,
                       "handoff-heavy precompute, shards=" +
                           std::to_string(shards));
  }
}

TEST(PrecomputeEquivalence, PoliciesWithoutPrecomputeAreUnaffected) {
  // A policy that keeps the default no-op precompute() must see an invalid
  // PredictedCv at every decision — new calls and handoffs alike — and so
  // decide inline.
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 2;
  InlineFlc1Facs::decisions = 0;
  InlineFlc1Facs::with_predicted = 0;
  const Metrics m = runInlineFlc1(cfg);
  ASSERT_GT(m.handoff_requests, 0);
  EXPECT_GE(InlineFlc1Facs::decisions.load(),
            m.new_requests + m.handoff_requests);
  EXPECT_EQ(InlineFlc1Facs::with_predicted.load(), 0);
}

TEST(ShardedEngine, PhaseProfileIsPopulated) {
  // The wall-clock phase profile feeds the serial-fraction benchmarks; it
  // is observational (not compared across runs) but must be present and
  // consistent: some time in every phase the run actually exercised. One
  // dispatch runs a group's local phase and its lane, and its time is
  // split between local_phase_s and the lane bucket — never counted twice,
  // so the phases can only sum to less than the run's wall time.
  for (const auto& [shards, groups] : {std::pair{1, 1}, std::pair{3, 4}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards x " +
                 std::to_string(groups) + " groups");
    SimulationConfig cfg = contestedConfig();
    cfg.shards = shards;
    cfg.commit_groups = groups;
    const auto t0 = std::chrono::steady_clock::now();
    const Metrics m = runPolicy(cfg, "facs");
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    ASSERT_EQ(m.commit_groups, groups);
    EXPECT_GT(m.prepare_phase_s, 0.0);
    EXPECT_GT(m.local_phase_s, 0.0);
    EXPECT_GT(m.commit_phase_s, 0.0);
    EXPECT_GE(m.commit_lane_s, 0.0);
    EXPECT_EQ(m.commit_lane_s > 0.0, groups > 1);
    EXPECT_LE(m.prepare_phase_s + m.local_phase_s + m.commit_phase_s +
                  m.commit_lane_s,
              wall_s);
    EXPECT_GT(m.commitShare(), 0.0);
    EXPECT_LT(m.commitShare(), 1.0);
  }
}

TEST(ShardedEngine, ShardCountIsValidated) {
  SimulationConfig cfg;
  cfg.total_requests = 1;
  cfg.shards = 0;
  EXPECT_THROW((void)runPolicy(cfg, "cs"),
               std::invalid_argument);
  cfg.shards = -3;
  EXPECT_THROW((void)runPolicy(cfg, "cs"),
               std::invalid_argument);
  cfg.shards = kMaxShards + 1;
  EXPECT_THROW((void)runPolicy(cfg, "cs"),
               std::invalid_argument);
  cfg.shards = 1;
  EXPECT_NO_THROW((void)runPolicy(cfg, "cs"));
}

TEST(ShardedEngine, CatalogEntriesCarryTheirShardCount) {
  const ScenarioCatalog& catalog = ScenarioCatalog::builtins();
  EXPECT_EQ(catalog.at("stadium-burst").config.shards, 4);
  EXPECT_EQ(catalog.at("paper-single-cell").config.shards, 1);
}

}  // namespace
}  // namespace facs::sim
