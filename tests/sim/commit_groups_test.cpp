/// \file commit_groups_test.cpp
/// Contracts of the two-level commit scheme (commit groups + cross-group
/// handoff reservations):
///
///  * commit_groups = 1 is THE serialized commit phase: bit-identical at
///    any shard count (and, via the untouched sharding suite, to the
///    pre-grouped engine), with zero reservation traffic.
///  * commit_groups > 1 is deterministic: the same (config, seed, groups)
///    reproduces the same bits on every run and at every shard count —
///    group lanes and the reservation barrier may only move work, never
///    change an outcome for a fixed grouping.
///  * Cross-group handoffs flow through reservations, and contended claims
///    (several groups after the last bandwidth units of one cell) resolve
///    deterministically in canonical (time, call) order.
///  * Only a cell-local policy (AdmissionController::cellLocal()) runs at
///    the configured lane count. Every other policy runs on one group.
///  * The load-aware (weighted) partition is deterministic too — seed-
///    stable and shard-invariant at every group count — and on a skewed
///    hotspot its per-lane committed-event split is measurably flatter
///    than the contiguous-by-id mapping's.
///  * Epoch re-partitioning follows a migrating hotspot without changing
///    any outcome invariant: the books still balance, and the run is a
///    pure function of (config, seed).
///  * Groups still move results for the policies that keep their lanes:
///    the handoff-drop gap between one and four groups on `highway` is
///    pinned, sign and size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cellular/network.hpp"
#include "cellular/policy_registry.hpp"
#include "serve/mutation.hpp"
#include "sim/experiment.hpp"
#include "sim/reservation.hpp"
#include "run_policy.hpp"
#include "sim/scenario_catalog.hpp"
#include "sim/simulator.hpp"

namespace facs::sim {
namespace {

/// The sharding suite's contested scenario: GPS-tracked decisions,
/// accepted and dropped handoffs, coverage exits, warmup — now also a
/// dense border traffic source for the group lanes.
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
  EXPECT_EQ(a.busy_bu_seconds, b.busy_bu_seconds) << label;
  EXPECT_EQ(a.observed_span_s, b.observed_span_s) << label;
  EXPECT_EQ(a.engine_events, b.engine_events) << label;
  EXPECT_EQ(a.commit_groups, b.commit_groups) << label;
  EXPECT_EQ(a.reservations_posted, b.reservations_posted) << label;
  EXPECT_EQ(a.reservations_admitted, b.reservations_admitted) << label;
  EXPECT_EQ(a.reservations_dropped, b.reservations_dropped) << label;
  // The per-lane event split and the repartition counts are part of the
  // deterministic surface: identical bits at every shard count.
  EXPECT_EQ(a.lane_events, b.lane_events) << label;
  EXPECT_EQ(a.repartitions, b.repartitions) << label;
  EXPECT_EQ(a.repartitions_skipped, b.repartitions_skipped) << label;
}

/// max/mean over the per-lane committed-event counts — 1.0 is a perfectly
/// flat split.
double eventImbalance(const Metrics& m) {
  if (m.lane_events.empty()) return 1.0;
  const std::uint64_t total = std::accumulate(
      m.lane_events.begin(), m.lane_events.end(), std::uint64_t{0});
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(m.lane_events.size());
  const std::uint64_t top =
      *std::max_element(m.lane_events.begin(), m.lane_events.end());
  return static_cast<double>(top) / mean;
}

/// The contested disk with one 12x heavy-traffic hotspot cell and a 2x
/// ring — the skew the load-aware partition exists for.
SimulationConfig hotspotConfig() {
  SimulationConfig cfg = contestedConfig();
  cfg.total_requests = 600;
  cfg.warmup_s = 0.0;
  for (cellular::CellId c = 0; c < 7; ++c) {
    CellOverride o;
    o.cell = c;
    o.arrival_scale = (c == 0) ? 12.0 : 2.0;
    if (c == 0) o.mix = cellular::TrafficMix{0.2, 0.3, 0.5};
    cfg.cell_overrides.push_back(o);
  }
  return cfg;
}

TEST(CommitGroups, GroupsOneIsBitIdenticalAcrossShardCounts) {
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 1;
  cfg.shards = 1;
  const Metrics serial = runPolicy(cfg, "guard:8");
  EXPECT_EQ(serial.commit_groups, 1);
  EXPECT_EQ(serial.reservations_posted, 0u);
  for (const int shards : {4}) {
    cfg.shards = shards;
    const Metrics m = runPolicy(cfg, "guard:8");
    expectBitIdentical(serial, m,
                       "groups=1 shards=" + std::to_string(shards));
  }
  // Not setting commit_groups at all IS groups=1 — the default engine.
  SimulationConfig untouched = contestedConfig();
  untouched.shards = 4;
  const Metrics d = runPolicy(untouched, "guard:8");
  expectBitIdentical(serial, d, "default config vs explicit groups=1");
}

TEST(CommitGroups, GroupedRunsAreShardInvariantAndSeedStable) {
  for (const char* policy : {"guard:8", "facs", "threshold"}) {
    for (const int groups : {2, 4}) {
      SimulationConfig cfg = contestedConfig();
      cfg.commit_groups = groups;
      cfg.shards = 1;
      const Metrics first = runPolicy(cfg, policy);
      EXPECT_EQ(first.commit_groups, groups) << policy;
      // 3 does not divide the group count and 8 exceeds it: workers that
      // own two groups, and workers that own none.
      for (const int shards : {2, 3, 4, 8}) {
        cfg.shards = shards;
        const Metrics m = runPolicy(cfg, policy);
        expectBitIdentical(first, m,
                           std::string{policy} + " groups=" +
                               std::to_string(groups) + " shards=" +
                               std::to_string(shards));
      }
      // Seed stability: a second identical run reproduces the bits.
      cfg.shards = 1;
      const Metrics again = runPolicy(cfg, policy);
      expectBitIdentical(first, again,
                         std::string{policy} + " repeated groups=" +
                             std::to_string(groups));
    }
  }
}

TEST(CommitGroups, CrossGroupHandoffsFlowThroughReservations) {
  // One group per cell: every handoff crosses a group border, so the
  // entire handoff stream is reservation traffic — and the books must
  // balance: posted = admitted + dropped, and every counted handoff
  // request is either an in-lane commit (none here) or a reservation.
  SimulationConfig cfg = contestedConfig();
  cfg.warmup_s = 0.0;  // counters and reservation gates see everything
  cfg.commit_groups = 7;
  const Metrics m = runPolicy(cfg, "guard:8");
  EXPECT_EQ(m.commit_groups, 7);
  ASSERT_GT(m.handoff_requests, 0);
  EXPECT_GT(m.reservations_posted, 0u);
  EXPECT_EQ(m.reservations_posted,
            m.reservations_admitted + m.reservations_dropped);
  EXPECT_EQ(m.reservations_posted,
            static_cast<std::uint64_t>(m.handoff_requests));
  EXPECT_EQ(m.handoff_requests, m.handoff_accepted + m.handoff_dropped);
}

TEST(CommitGroups, ContendedLastUnitsResolveDeterministically) {
  // Starve the cells (two voice calls fill one) so reservation claims
  // regularly fight over the last units at the barrier. The winner must be
  // the same on every run and at every shard count — canonical (time,
  // call) drain order, not thread scheduling, decides.
  SimulationConfig cfg = contestedConfig();
  cfg.capacity_bu = 10;
  cfg.total_requests = 200;
  cfg.warmup_s = 0.0;
  cfg.commit_groups = 7;
  cfg.scenario.mix = cellular::TrafficMix{0.0, 1.0, 0.0};  // 5 BU voice
  cfg.shards = 1;
  const Metrics first = runPolicy(cfg, "cs");
  ASSERT_GT(first.reservations_posted, 0u);
  ASSERT_GT(first.reservations_dropped, 0u)
      << "scenario too roomy to contend the last units";
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = runPolicy(cfg, "cs");
    expectBitIdentical(first, m,
                       "contended shards=" + std::to_string(shards));
  }
  cfg.shards = 1;
  const Metrics again = runPolicy(cfg, "cs");
  expectBitIdentical(first, again, "contended repeat");
}

/// Complete sharing, declared cell-local or not.
class SharingStub final : public cellular::AdmissionController {
 public:
  explicit SharingStub(bool cell_local) : cell_local_{cell_local} {}
  [[nodiscard]] std::string name() const override { return "SharingStub"; }
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override {
    const bool fits = context.station.canFit(request.demand_bu);
    return {fits,
            fits ? cellular::ReasonCode::Admitted
                 : cellular::ReasonCode::NoCapacity,
            fits ? 1.0 : -1.0, ""};
  }
  [[nodiscard]] bool cellLocal() const override { return cell_local_; }

 private:
  bool cell_local_;
};

TEST(CommitGroups, OnlyCellLocalPoliciesGetLanes) {
  // The same decisions, declared cell-local or not: the cell-local stub
  // runs on the four requested lanes, the other on one, with the output
  // of a one-group run of either.
  cellular::PolicyRuntime runtime;
  for (const bool cell_local : {true, false}) {
    runtime.registerExternal(
        {cell_local ? "local-stub" : "spanning-stub", "test stub",
         cell_local ? "local-stub" : "spanning-stub"},
        [cell_local](const cellular::PolicySpec&) -> ControllerFactory {
          return [cell_local](const cellular::HexNetwork&) {
            return std::make_unique<SharingStub>(cell_local);
          };
        });
  }
  SimulationConfig cfg = contestedConfig();
  const Metrics serial = runPolicy(cfg, "local-stub", runtime);
  cfg.commit_groups = 4;
  const Metrics local = runPolicy(cfg, "local-stub", runtime);
  EXPECT_EQ(local.commit_groups, 4);
  EXPECT_GT(local.reservations_posted, 0u);
  const Metrics spanning = runPolicy(cfg, "spanning-stub", runtime);
  EXPECT_EQ(spanning.commit_groups, 1);
  EXPECT_EQ(spanning.toJson(), serial.toJson());
}

TEST(CommitGroups, GroupCountClampsToCellCount) {
  // 7 cells, 64 requested lanes: the partition clamps, the run reports
  // the effective count, and the result is exactly the 7-lane run.
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 64;
  const Metrics wide = runPolicy(cfg, "guard:8");
  EXPECT_EQ(wide.commit_groups, 7);
  cfg.commit_groups = 7;
  const Metrics exact = runPolicy(cfg, "guard:8");
  expectBitIdentical(exact, wide, "groups=64 over 7 cells");
}

TEST(CommitGroups, ConfigValidatesTheKnob) {
  SimulationConfig cfg;
  cfg.commit_groups = 0;
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  cfg.commit_groups = kMaxShards + 1;
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  cfg.commit_groups = 6;
  EXPECT_NO_THROW(validateConfig(cfg));
}

TEST(CommitGroups, MetricsJsonCarriesTheGroupFields) {
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 7;
  cfg.warmup_s = 0.0;
  const Metrics m = runPolicy(cfg, "guard:8");
  const std::string json = m.toJson();
  EXPECT_NE(json.find("\"commit_groups\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"reservations_posted\": "), std::string::npos);
  EXPECT_NE(json.find("\"reservations_admitted\": "), std::string::npos);
  EXPECT_NE(json.find("\"reservations_dropped\": "), std::string::npos);
}

// -------------------------------------------------------- group drift

/// One pinned gap: the mean over seeds 1-20 of a policy's handoff-drop
/// probability at four groups minus one, and its 95% CI half-width.
struct DriftCase {
  const char* policy;
  double gap;
  double ci95;
};

TEST(GroupDrift, CrossGroupClaimsRaiseHandoffDropsOnTheHighway) {
  // A cross-group handoff releases its source cell in-lane, but its claim
  // on the target cell is decided at the barrier, after every event of the
  // target group in that window: new calls arriving there take capacity
  // first. On `highway` (3000 requests, 1 shard), paired over seeds 1-20,
  // that raises the handoff-drop probability at four groups by a gap
  // whose CI clears zero. README's "When to use it" publishes this table;
  // a change that moves it must re-pin it there too.
  constexpr DriftCase kDrift[] = {
      {"cs", 0.0997, 0.0126},
      {"facs", 0.0428, 0.0120},
  };
  for (const DriftCase& c : kDrift) {
    RunningStat gap;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SimulationConfig cfg =
          ScenarioCatalog::builtins().at("highway").config;
      cfg.total_requests = 3000;
      cfg.seed = seed;
      const double one = runPolicy(cfg, c.policy).droppingProbability();
      cfg.commit_groups = 4;
      const double four = runPolicy(cfg, c.policy).droppingProbability();
      gap.add(four - one);
    }
    EXPECT_GT(gap.mean() - gap.ci95(), 0.0)
        << c.policy << " gap " << gap.mean() << " +/- " << gap.ci95();
    EXPECT_NEAR(gap.mean(), c.gap, 5e-5) << c.policy;
    EXPECT_NEAR(gap.ci95(), c.ci95, 5e-5) << c.policy;
  }
}

// ------------------------------------------------- load-aware partitioning

TEST(WeightedPartition, SkewedWeightsShrinkTheHeavyGroup) {
  const cellular::HexNetwork net{1, 2.0};  // 7 cells
  // Cell 0 carries half the disk's weight: it must sit alone (or nearly)
  // in its group while the light cells pool together.
  const std::vector<double> weights{6.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  const cellular::CellGroupPartition p{net, 4, weights};
  EXPECT_EQ(p.groups(), 4);
  std::vector<int> sizes(4, 0);
  for (cellular::CellId c = 0; c < 7; ++c) {
    ++sizes.at(static_cast<std::size_t>(p.groupOf(c)));
    if (c > 0) {
      // Contiguous ranges: group ids never decrease along the id axis.
      EXPECT_GE(p.groupOf(c), p.groupOf(c - 1)) << "cell " << c;
    }
  }
  for (int g = 0; g < 4; ++g) EXPECT_GT(sizes[g], 0) << "empty group " << g;
  EXPECT_EQ(p.groupOf(0), 0);
  EXPECT_EQ(sizes[0], 1) << "the heavy cell must not drag light cells "
                            "into its lane";
}

TEST(WeightedPartition, AllZeroWeightsDegradeToTheUniformSplit) {
  const cellular::HexNetwork net{2, 2.0};  // 19 cells
  const std::vector<double> zeros(19, 0.0);
  const cellular::CellGroupPartition weighted{net, 4, zeros};
  const std::vector<double> ones(19, 1.0);
  const cellular::CellGroupPartition uniform{net, 4, ones};
  for (cellular::CellId c = 0; c < 19; ++c) {
    EXPECT_EQ(weighted.groupOf(c), uniform.groupOf(c)) << "cell " << c;
  }
}

TEST(WeightedPartition, RejectsMalformedWeights) {
  const cellular::HexNetwork net{1, 2.0};
  using cellular::CellGroupPartition;
  EXPECT_THROW((CellGroupPartition{net, 2, std::vector<double>(6, 1.0)}),
               std::invalid_argument);  // 6 weights for 7 cells
  std::vector<double> negative(7, 1.0);
  negative[3] = -0.5;
  EXPECT_THROW((CellGroupPartition{net, 2, negative}),
               std::invalid_argument);
  std::vector<double> infinite(7, 1.0);
  infinite[0] = std::numeric_limits<double>::infinity();
  EXPECT_THROW((CellGroupPartition{net, 2, infinite}),
               std::invalid_argument);
}

TEST(WeightedPartition, EngineRunsAreShardInvariantAndSeedStable) {
  // The weighted strategy (with epoch re-partitioning on) must satisfy
  // the same determinism contract as contiguous: a pure function of
  // (config, seed), at every shard count.
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  cfg.repartition_every_s = 60.0;
  cfg.shards = 1;
  const Metrics first = runPolicy(cfg, "guard:8");
  EXPECT_EQ(first.commit_groups, 4);
  ASSERT_EQ(first.lane_events.size(), 4u);
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = runPolicy(cfg, "guard:8");
    expectBitIdentical(first, m,
                       "weighted shards=" + std::to_string(shards));
  }
  cfg.shards = 1;
  const Metrics again = runPolicy(cfg, "guard:8");
  expectBitIdentical(first, again, "weighted repeat");
}

TEST(WeightedPartition, FlattensTheHotspotLaneSplit) {
  // The acceptance check in miniature: on the skewed disk at 4 lanes the
  // weighted partition's committed-event imbalance must sit well under
  // the contiguous mapping's (measured ~1.1 vs ~1.9; the margin asserted
  // here is loose enough to survive arrival-sequence jitter).
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Contiguous;
  const Metrics contiguous = runPolicy(cfg, "guard:8");
  cfg.partition = PartitionStrategy::Weighted;
  const Metrics weighted = runPolicy(cfg, "guard:8");
  ASSERT_EQ(contiguous.lane_events.size(), 4u);
  ASSERT_EQ(weighted.lane_events.size(), 4u);
  const double before = eventImbalance(contiguous);
  const double after = eventImbalance(weighted);
  EXPECT_GT(before, 1.3) << "hotspot too mild to demonstrate anything";
  EXPECT_LT(after, before * 0.85)
      << "weighted split (" << after << ") must beat contiguous ("
      << before << ") by a clear margin";
}

TEST(WeightedPartition, EpochRepartitioningFollowsAMigratingHotspot) {
  // The hotspot MOVES mid-run (cell 0's 12x scale drops to 1 while cell 4
  // ramps to 12x): the epoch re-partitioner must notice and re-draw the
  // boundaries at least once, and the run must stay a pure function of
  // (config, seed) — bit-identical across shard counts and repeats, with
  // the reservation books still balancing across the boundary moves.
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  cfg.repartition_every_s = 50.0;
  serve::ScenarioMutation cool;
  cool.at_s = 180.0;
  cool.op = serve::MutationOp::ArrivalScale;
  cool.cell = 0;
  cool.scale = 1.0;
  serve::ScenarioMutation heat;
  heat.at_s = 180.0;
  heat.op = serve::MutationOp::ArrivalScale;
  heat.cell = 4;
  heat.scale = 12.0;
  cfg.mutations.push_back(cool);
  cfg.mutations.push_back(heat);
  cfg.shards = 1;
  const Metrics first = runPolicy(cfg, "guard:8");
  EXPECT_GT(first.repartitions, 0)
      << "a migrating hotspot must trigger at least one boundary re-draw";
  EXPECT_EQ(first.mutations_applied, 2);
  // Conservation across re-partitions: every posted reservation is
  // settled exactly once, every handoff is accounted.
  EXPECT_EQ(first.reservations_posted,
            first.reservations_admitted + first.reservations_dropped);
  EXPECT_EQ(first.handoff_requests,
            first.handoff_accepted + first.handoff_dropped);
  for (const int shards : {2, 3, 4, 8}) {
    cfg.shards = shards;
    const Metrics m = runPolicy(cfg, "guard:8");
    expectBitIdentical(first, m,
                       "migrating shards=" + std::to_string(shards));
  }
  cfg.shards = 1;
  const Metrics again = runPolicy(cfg, "guard:8");
  expectBitIdentical(first, again, "migrating repeat");
}

TEST(WeightedPartition, RepartitionHysteresisSkipsLowGainEpochs) {
  // A STEADY hotspot: after the initial weighted draw the projected
  // improvement of later epochs is noise, so the hysteresis gate must
  // skip them (counted, deterministic) instead of churning the queues
  // through pointless re-homes.
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  cfg.repartition_every_s = 40.0;
  cfg.shards = 1;
  const Metrics first = runPolicy(cfg, "guard:8");
  EXPECT_GT(first.repartitions_skipped, 0)
      << "a steady hotspot must not clear the hysteresis bar every epoch";
  cfg.shards = 4;
  const Metrics m = runPolicy(cfg, "guard:8");
  expectBitIdentical(first, m, "hysteresis shards=4");
}

TEST(WeightedPartition, LaneEventsCoverTheCommittedStream) {
  // lane_events splits the committed work by lane: one entry per group,
  // every entry positive on a loaded disk, and the array plus the
  // repartition count round-trips through the metrics JSON.
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  const Metrics m = runPolicy(cfg, "guard:8");
  ASSERT_EQ(m.lane_events.size(), 4u);
  for (std::size_t g = 0; g < m.lane_events.size(); ++g) {
    EXPECT_GT(m.lane_events[g], 0u) << "idle lane " << g;
  }
  const std::string json = m.toJson();
  EXPECT_NE(json.find("\"lane_events\": ["), std::string::npos);
  EXPECT_NE(json.find("\"repartitions\": "), std::string::npos);
}

TEST(WeightedPartition, ConfigValidatesTheNewKnobs) {
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 4;
  cfg.repartition_every_s = -1.0;
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  cfg.repartition_every_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  // Re-partitioning is meaningless for contiguous boundaries — rejected,
  // not ignored.
  cfg.partition = PartitionStrategy::Contiguous;
  cfg.repartition_every_s = 60.0;
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  cfg.partition = PartitionStrategy::Weighted;
  EXPECT_NO_THROW(validateConfig(cfg));
}

// ------------------------------------------------------------ reservations

TEST(ReservationEarlier, OrdersClaimsByTimeThenCall) {
  // Delivered out of order, including an exact time tie — the paper's "two
  // BSs claim the last unit at once": the lower call id wins the earlier
  // slot, on every platform, at every shard count.
  std::vector<Reservation> inbox{Reservation{30.0, 9, 1, 2, 5, true},
                                 Reservation{10.0, 7, 3, 2, 5, true},
                                 Reservation{30.0, 2, 4, 2, 5, true},
                                 Reservation{20.0, 5, 5, 2, 5, true}};
  std::sort(inbox.begin(), inbox.end(), ReservationEarlier{});
  ASSERT_EQ(inbox.size(), 4u);
  EXPECT_EQ(inbox[0].call, 7);
  EXPECT_EQ(inbox[1].call, 5);
  EXPECT_EQ(inbox[2].call, 2);  // tie at t=30: call 2 before call 9
  EXPECT_EQ(inbox[3].call, 9);
}

}  // namespace
}  // namespace facs::sim
