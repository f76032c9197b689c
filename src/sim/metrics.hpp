#pragma once
/// \file metrics.hpp
/// Call-level statistics collected by the simulator — the quantities the
/// paper's figures plot (percentage of accepted calls) plus the standard
/// CAC quality measures (blocking, dropping, utilization).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cellular/traffic.hpp"

namespace facs::sim {

/// Shortest decimal form that parses back to the identical double
/// (std::to_chars): equal doubles always print equal text. Shared by
/// Metrics::toJson() and the scenario-file writer — the textual side of
/// the bit-identical round-trip contract.
[[nodiscard]] std::string shortestNumber(double v);

/// Aggregated counters for one simulation run.
struct Metrics {
  // New-call admission.
  int new_requests = 0;
  int new_accepted = 0;
  int new_blocked = 0;

  // Handoffs.
  int handoff_requests = 0;
  int handoff_accepted = 0;
  int handoff_dropped = 0;

  int completed = 0;  ///< Calls that ended normally.

  // Per-class acceptance (indexed by ServiceClass).
  std::array<int, cellular::kServiceClassCount> class_requests{};
  std::array<int, cellular::kServiceClassCount> class_accepted{};

  // Time-weighted bandwidth usage.
  double busy_bu_seconds = 0.0;   ///< Integral of occupied BU over time.
  double observed_span_s = 0.0;   ///< Simulated span the integral covers.
  cellular::BandwidthUnits total_capacity_bu = 0;

  /// Simulation events the engine processed (decisions, releases, mobility
  /// steps, handoffs) — the numerator of the events/sec scaling figure.
  /// Identical for a given (config, seed) at every shard count.
  std::uint64_t engine_events = 0;

  /// Commit lanes the run actually used: SimulationConfig::commit_groups
  /// clamped to the cell count, or 1 for a policy that is not cell-local.
  /// Deterministic — part of the JSON so grouped runs are self-describing.
  int commit_groups = 1;

  /// Committed events per commit lane (size == commit_groups, lane order).
  /// The deterministic face of lane balance: decisions, releases and
  /// handoffs each lane replayed, plus the reservations it drained at the
  /// barrier. Sums to engine_events + reservations handled. max/mean over
  /// this vector is the imbalance ratio the weighted partition exists to
  /// shrink. Part of the bit-identity contract (unlike lane_commit_s).
  std::vector<std::uint64_t> lane_events{};

  /// Wall-clock seconds each commit lane spent running (its canonical
  /// replay plus its share of the parallel reservation drain). Size ==
  /// commit_groups. NOT deterministic and NOT in toJson() — this is the
  /// measured twin of lane_events for bench output. commit_lane_s is not
  /// its max: it is dispatch wall time, waits included, less local time.
  std::vector<double> lane_commit_s{};

  /// Weighted-partition epoch re-partitions that actually changed the
  /// cell-to-group mapping (SimulationConfig::repartition_every_s).
  /// Deterministic: epochs land at barrier times and the load weights are
  /// committed-event counts, both pure functions of (config, seed).
  int repartitions = 0;

  /// Epoch re-draws that produced a different mapping but were skipped by
  /// the boundary hysteresis: the projected max/mean imbalance improvement
  /// was below the adoption threshold, so moving cells (and migrating
  /// per-group policy state) would have been churn, not balance.
  /// Deterministic for the same reason repartitions is.
  int repartitions_skipped = 0;

  /// Cross-group handoff reservations (the inter-BS messages): claims
  /// posted on foreign groups' cells, and how they resolved at the
  /// tick-window barrier. posted == admitted + dropped. Warmup-gated like
  /// every other counter; always 0 at commit_groups == 1 (every handoff
  /// commits inside its lane). Deterministic for fixed (config, seed,
  /// commit_groups) at any shard count.
  std::uint64_t reservations_posted = 0;
  std::uint64_t reservations_admitted = 0;
  std::uint64_t reservations_dropped = 0;

  /// Always 0: no policy defers work to a barrier. Kept only because
  /// perfbench/main.cpp reads them.
  std::uint64_t demand_deltas = 0;
  std::uint64_t shadow_migrations = 0;

  /// Policy sizing warnings raised by auditWorkload() at engine start
  /// (e.g. an SCC reach smaller than the fastest mobile's projection
  /// horizon). Printed once on stderr; counted here so JSON consumers see
  /// the degradation too. A pure function of the config — deterministic.
  int policy_warnings = 0;

  /// Scheduled scenario mutations (SimulationConfig::mutations) applied at
  /// tick-window barriers so far. NOT warmup-gated — a mutation is a
  /// config event, not a traffic sample. Deterministic: barrier times are
  /// pure functions of the config.
  int mutations_applied = 0;

  /// Live calls force-dropped by cell-outage mutations (warmup-gated at
  /// the outage instant like every traffic counter). These calls are
  /// neither completed nor handoff-dropped — the outage took them.
  int outage_forced_drops = 0;

  /// High-water mark of simultaneously live calls in the engine's call
  /// pool — the number memory is proportional to in the flat-memory
  /// engine (cumulative calls only pass through). Deterministic for a
  /// fixed (config, seed, commit_groups) at any shard count.
  std::uint64_t peak_concurrent_calls = 0;

  /// Rationales cut at ReasonText's inline capacity during this run's
  /// measured (post-warmup) span, like every other counter. Only ever
  /// non-zero when the run decided with explain on
  /// (SimulationConfig::explain); the CLI warns once per run when set, so
  /// truncation is visible instead of silently losing tails. Deterministic
  /// (part of the bit-identity contract) — decisions never depend on it.
  int truncated_rationales = 0;

  // Wall-clock profile of the engine's execution phases. NOT part of the
  // determinism contract (timings vary run to run even at a fixed seed) —
  // bit-identity comparisons must skip these. The four fields split the
  // run without overlap. The commit phase is the serialized section, so
  // commitShare() is the measured serial fraction that caps sharded
  // speedup (Amdahl). One dispatch per window runs every group's local
  // phase and then its lane; what is not local time is lane time. With
  // commit_groups > 1 the lanes run concurrently and their time is
  // commit_lane_s; commit_phase_s covers only what stays serialized:
  // draining reservations and policy residue at the barrier. At
  // commit_groups == 1 the single lane IS the serialized commit, so its
  // time stays in commit_phase_s and commit_lane_s is 0.
  double prepare_phase_s = 0.0;  ///< Parallel: arrival draws, GPS tracking.
  /// Per window, the longest group local phase (heap drain, mover sweep).
  double local_phase_s = 0.0;
  double commit_phase_s = 0.0;   ///< Serial: ledger/controller mutations.
  double commit_lane_s = 0.0;    ///< Parallel: the rest of the dispatch.

  /// Fraction of engine wall time spent in the serialized commit section.
  [[nodiscard]] double commitShare() const noexcept {
    const double total =
        prepare_phase_s + local_phase_s + commit_phase_s + commit_lane_s;
    if (total <= 0.0) return 0.0;
    return commit_phase_s / total;
  }

  /// The paper's y-axis: accepted / requesting new connections, in percent.
  /// 100 when no request was made (an empty x=0 point plots at the top).
  [[nodiscard]] double percentAccepted() const noexcept {
    if (new_requests == 0) return 100.0;
    return 100.0 * static_cast<double>(new_accepted) /
           static_cast<double>(new_requests);
  }

  /// New-call blocking probability in [0, 1].
  [[nodiscard]] double blockingProbability() const noexcept {
    if (new_requests == 0) return 0.0;
    return static_cast<double>(new_blocked) /
           static_cast<double>(new_requests);
  }

  /// Handoff dropping probability in [0, 1].
  [[nodiscard]] double droppingProbability() const noexcept {
    if (handoff_requests == 0) return 0.0;
    return static_cast<double>(handoff_dropped) /
           static_cast<double>(handoff_requests);
  }

  /// Mean fraction of total capacity in use over the observed span.
  [[nodiscard]] double meanUtilization() const noexcept {
    if (observed_span_s <= 0.0 || total_capacity_bu <= 0) return 0.0;
    return busy_bu_seconds /
           (observed_span_s * static_cast<double>(total_capacity_bu));
  }

  [[nodiscard]] double percentAcceptedForClass(
      cellular::ServiceClass c) const noexcept {
    const auto i = static_cast<std::size_t>(c);
    if (class_requests[i] == 0) return 100.0;
    return 100.0 * static_cast<double>(class_accepted[i]) /
           static_cast<double>(class_requests[i]);
  }

  /// One-line human-readable summary.
  [[nodiscard]] std::string summary() const;

  /// The deterministic counters as a JSON object (stable key order, doubles
  /// in shortest round-trip form), so two runs can be compared with a plain
  /// textual diff — the CI round-trip gate relies on this. The wall-clock
  /// phase profile is deliberately absent: timings differ run to run even
  /// at a fixed seed.
  [[nodiscard]] std::string toJson() const;
};

}  // namespace facs::sim
