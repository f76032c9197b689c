/// \file multi_cell_scaling.cpp
/// Sharded-engine scaling study: events/sec versus shard count on a
/// multi-cell scenario heavy enough for the parallel phases to matter
/// (GPS-tracked admissions, thousands of mobile calls stepping every
/// tick across 19 cells), plus the measured commit-phase share — the
/// serial fraction that caps speedup (Amdahl). Also doubles as a
/// determinism audit: every shard count must reproduce the serial run's
/// metrics bit for bit (its whole Metrics::toJson() object) — any
/// divergence is reported and fails the process.
///
///   multi_cell_scaling [--quick] [--requests N] [--shards LIST]
///                      [--groups LIST] [--policy SPEC] [--hotspot]
///                      [--partition NAME] [--repartition S] [--csv]
///                      [--json]
///
/// --hotspot skews the workload stadium-burst-style: the centre cell
/// spawns 12x the base rate with a video-heavy mix and the inner ring 2x —
/// the load shape that breaks a contiguous-by-id partition. --partition
/// picks the cell-to-lane mapping (contiguous | weighted | both — "both"
/// runs the full sweep per strategy, the lane-balance A/B the CI hotspot
/// audit consumes). --repartition S enables weighted epoch re-partitioning
/// every S simulated seconds. Every sample reports per-lane committed
/// events and wall seconds plus their max/mean imbalance ratios; --json
/// carries the full per-lane arrays per (partition, groups, shards) point.
///
/// --quick shrinks the run for CI smoke jobs. Speedups depend on the
/// machine: with one core the study only demonstrates that the barrier
/// machinery costs little; the >1 numbers need real parallel hardware.
/// The default policy is guard:8 — an O(1) decide keeps the serialized
/// commit phase thin, so the measurement isolates the engine's scaling.
/// Pass --policy facs or --policy scc to study decide-heavy policies
/// (their serialized admission work caps the speedup, per Amdahl).
/// --json emits one machine-readable object (used by the CI bench-smoke
/// artifact to track events/sec and commit share per commit).
///
/// --groups sweeps the two-level commit lanes (default "1,4"): each group
/// count runs at every shard count. commit% is the SERIALIZED share — at
/// groups>1 the lane replay runs concurrently and moves out of the serial
/// bucket (lane% column), so the commit% trajectory across the group list
/// is exactly the Amdahl ceiling the two-level scheme buys back. The
/// determinism audit tightens accordingly: within one group count every
/// shard count must reproduce the same bits (groups=1 additionally matches
/// the historical serialized engine); different group counts are different
/// documented visibility semantics and are NOT compared to each other.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "figure_common.hpp"

namespace {

using namespace facs;

sim::SimulationConfig studyConfig(int requests) {
  // A dense urban district: 19 micro-cells, every admission GPS-tracked
  // through a long window (the expensive per-call local work the shards
  // parallelize), moderate speeds so calls keep crossing cells.
  sim::SimulationConfig cfg;
  cfg.rings = 2;
  cfg.cell_radius_km = 1.5;
  cfg.capacity_bu = 40;
  cfg.total_requests = requests;
  cfg.arrival_window_s = 1200.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = 2024;
  cfg.scenario.speed_min_kmh = 10.0;
  cfg.scenario.speed_max_kmh = 60.0;
  cfg.scenario.distance_min_km = 0.0;
  cfg.scenario.distance_max_km = 1.5;
  cfg.scenario.tracking_window_s = 30.0;
  cfg.scenario.gps_fix_period_s = 2.0;
  return cfg;
}

std::vector<int> parseShardList(const std::string& value) {
  std::vector<int> out;
  std::stringstream ss{value};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

/// Skews the study stadium-burst-style: the centre cell turns into a 12x
/// video-heavy hotspot, its whole inner ring runs 2x — per-cell load the
/// contiguous-by-id partition piles into one lane.
void applyHotspot(sim::SimulationConfig& cfg) {
  sim::CellOverride centre;
  centre.cell = 0;
  centre.arrival_scale = 12.0;
  centre.mix = cellular::TrafficMix{0.2, 0.3, 0.5};
  cfg.cell_overrides.push_back(centre);
  for (int c = 1; c <= 6; ++c) {
    sim::CellOverride ring;
    ring.cell = c;
    ring.arrival_scale = 2.0;
    cfg.cell_overrides.push_back(ring);
  }
}

/// max/mean over a per-lane vector: 1.0 = perfectly balanced lanes.
template <typename T>
double imbalance(const std::vector<T>& v) {
  if (v.empty()) return 1.0;
  double sum = 0.0;
  double max = 0.0;
  for (const T x : v) {
    const double d = static_cast<double>(x);
    sum += d;
    max = std::max(max, d);
  }
  if (sum <= 0.0) return 1.0;
  return max / (sum / static_cast<double>(v.size()));
}

/// One measured run at a given (partition, groups, shards) point.
struct Sample {
  std::string partition;
  int groups = 0;
  int shards = 0;
  double seconds = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double speedup = 1.0;
  double commit_share = 0.0;   ///< Serialized fraction of engine wall time.
  double lane_share = 0.0;     ///< Parallel group-lane fraction (groups>1).
  double prepare_share = 0.0;
  double local_share = 0.0;
  std::uint64_t reservations = 0;          ///< Cross-group claims posted.
  std::uint64_t reservations_admitted = 0;
  std::uint64_t reservations_dropped = 0;
  int repartitions = 0;
  std::vector<std::uint64_t> lane_events;  ///< Per-lane committed events.
  std::vector<double> lane_seconds;        ///< Per-lane wall seconds.
  double event_imbalance = 1.0;  ///< max/mean of lane_events (deterministic).
  double time_imbalance = 1.0;   ///< max/mean of lane_seconds (measured).
};

}  // namespace

int main(int argc, char** argv) {
  int requests = 6000;
  std::vector<int> shard_counts{1, 2, 4, 8};
  std::vector<int> group_counts{1, 4};
  std::string policy_spec = "guard:8";
  std::string partition_arg = "contiguous";
  double repartition_s = 0.0;
  bool hotspot = false;
  bool csv = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      requests = 600;
      shard_counts = {1, 2, 4};
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_counts = parseShardList(argv[++i]);
    } else if (std::strcmp(argv[i], "--groups") == 0 && i + 1 < argc) {
      group_counts = parseShardList(argv[++i]);
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      policy_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--partition") == 0 && i + 1 < argc) {
      partition_arg = argv[++i];
    } else if (std::strcmp(argv[i], "--repartition") == 0 && i + 1 < argc) {
      repartition_s = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--hotspot") == 0) {
      hotspot = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::cerr << "usage: multi_cell_scaling [--quick] [--requests N] "
                   "[--shards LIST] [--groups LIST] [--policy SPEC] "
                   "[--hotspot] [--partition contiguous|weighted|both] "
                   "[--repartition S] [--csv] [--json]\n";
      return 2;
    }
  }

  std::vector<std::string> strategies;
  if (partition_arg == "both") {
    strategies = {"contiguous", "weighted"};
  } else if (partition_arg == "contiguous" || partition_arg == "weighted") {
    strategies = {partition_arg};
  } else {
    std::cerr << "multi_cell_scaling: --partition must be 'contiguous', "
                 "'weighted' or 'both', got '"
              << partition_arg << "'\n";
    return 2;
  }

  if (csv && json) {
    std::cerr << "multi_cell_scaling: --csv and --json are mutually "
                 "exclusive (both write to stdout)\n";
    return 2;
  }

  sim::SimulationConfig base_cfg = studyConfig(requests);
  if (hotspot) applyHotspot(base_cfg);
  const auto factory = bench::policy(policy_spec);

  const bool table = !csv && !json;
  if (csv) {
    std::cout << "partition,groups,shards,seconds,events,events_per_sec,"
                 "speedup,commit_share,lane_share,prepare_share,local_share,"
                 "reservations,reservations_admitted,reservations_dropped,"
                 "repartitions,event_imbalance,time_imbalance\n";
  } else if (table) {
    std::cout << "Sharded engine scaling: " << requests
              << " GPS-tracked requests over 19 cells (policy "
              << policy_spec
              << (hotspot ? ", hotspot skew" : "") << ")\n\n"
              << std::left << std::setw(12) << "partition" << std::setw(8)
              << "groups" << std::setw(8) << "shards" << std::setw(12)
              << "seconds" << std::setw(12) << "events" << std::setw(14)
              << "events/sec" << std::setw(10) << "speedup" << std::setw(10)
              << "commit%" << std::setw(10) << "lane%" << std::setw(10)
              << "imbal" << "resv" << "\n";
  }

  sim::Metrics summary_reference;
  std::vector<Sample> samples;
  double serial_s = 0.0;
  bool deterministic = true;
  bool first_sample = true;
  for (const std::string& strategy : strategies) {
    sim::SimulationConfig cfg = base_cfg;
    cfg.partition = strategy == "weighted"
                        ? sim::PartitionStrategy::Weighted
                        : sim::PartitionStrategy::Contiguous;
    cfg.repartition_every_s =
        strategy == "weighted" ? repartition_s : 0.0;
    for (std::size_t gi = 0; gi < group_counts.size(); ++gi) {
      cfg.commit_groups = group_counts[gi];
      // Determinism reference per (partition, group count): the same
      // mapping must give the same bits at every shard count (different
      // group counts — and different partitions — differ by design).
      std::string reference;
      for (std::size_t i = 0; i < shard_counts.size(); ++i) {
        cfg.shards = shard_counts[i];
        const auto t0 = std::chrono::steady_clock::now();
        const sim::Metrics m = sim::runSimulation(cfg, factory);
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

        if (i == 0) {
          reference = m.toJson();
          if (first_sample) {
            summary_reference = m;
            serial_s = secs;
            first_sample = false;
          }
        } else if (m.toJson() != reference) {
          // Every deterministic field, not a hand-picked subset.
          deterministic = false;
        }

        Sample s;
        s.partition = strategy;
        s.groups = m.commit_groups;
        s.shards = cfg.shards;
        s.seconds = secs;
        s.events = m.engine_events;
        s.events_per_sec =
            secs > 0.0 ? static_cast<double>(m.engine_events) / secs : 0.0;
        s.speedup = secs > 0.0 ? serial_s / secs : 0.0;
        s.commit_share = m.commitShare();
        s.reservations = m.reservations_posted;
        s.reservations_admitted = m.reservations_admitted;
        s.reservations_dropped = m.reservations_dropped;
        s.repartitions = m.repartitions;
        s.lane_events = m.lane_events;
        s.lane_seconds = m.lane_commit_s;
        s.event_imbalance = imbalance(m.lane_events);
        s.time_imbalance = imbalance(m.lane_commit_s);
        const double phases = m.prepare_phase_s + m.local_phase_s +
                              m.commit_phase_s + m.commit_lane_s;
        if (phases > 0.0) {
          s.lane_share = m.commit_lane_s / phases;
          s.prepare_share = m.prepare_phase_s / phases;
          s.local_share = m.local_phase_s / phases;
        }
        samples.push_back(s);

        if (csv) {
          std::cout << s.partition << "," << s.groups << "," << s.shards
                    << "," << s.seconds << "," << s.events << ","
                    << s.events_per_sec << "," << s.speedup << ","
                    << s.commit_share << "," << s.lane_share << ","
                    << s.prepare_share << "," << s.local_share << ","
                    << s.reservations << "," << s.reservations_admitted
                    << "," << s.reservations_dropped << ","
                    << s.repartitions << "," << s.event_imbalance << ","
                    << s.time_imbalance << "\n";
        } else if (table) {
          std::ostringstream speedup;
          speedup << std::fixed << std::setprecision(2) << s.speedup << "x";
          std::ostringstream commit_pct;
          commit_pct << std::fixed << std::setprecision(1)
                     << 100.0 * s.commit_share << "%";
          std::ostringstream lane_pct;
          lane_pct << std::fixed << std::setprecision(1)
                   << 100.0 * s.lane_share << "%";
          std::ostringstream imbal;
          imbal << std::fixed << std::setprecision(2) << s.event_imbalance;
          std::cout << std::left << std::setw(12) << s.partition
                    << std::setw(8) << s.groups << std::setw(8) << s.shards
                    << std::fixed << std::setprecision(3) << std::setw(12)
                    << s.seconds << std::setw(12) << s.events
                    << std::setprecision(0) << std::setw(14)
                    << s.events_per_sec << std::setw(10) << speedup.str()
                    << std::setw(10) << commit_pct.str() << std::setw(10)
                    << lane_pct.str() << std::setw(10) << imbal.str()
                    << s.reservations << "\n";
        }
      }
    }
  }

  if (json) {
    // Self-contained object for the CI artifact: per-(partition, groups,
    // shards) events/sec, the measured serialized (commit-phase) share,
    // and the full per-lane arrays (committed events + wall seconds) plus
    // their max/mean imbalance ratios — the one format the hotspot
    // lane-balance audit and bench_report both consume.
    std::cout << "{\n  \"policy\": \"" << policy_spec << "\",\n"
              << "  \"requests\": " << requests << ",\n"
              << "  \"hotspot\": " << (hotspot ? "true" : "false") << ",\n"
              << "  \"deterministic\": "
              << (deterministic ? "true" : "false") << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      std::cout << "    {\"partition\": \"" << s.partition
                << "\", \"commit_groups\": " << s.groups << ", \"shards\": "
                << s.shards << ", \"seconds\": " << s.seconds
                << ", \"events\": " << s.events << ", \"events_per_sec\": "
                << s.events_per_sec << ", \"speedup\": " << s.speedup
                << ", \"commit_share\": " << s.commit_share
                << ", \"lane_share\": " << s.lane_share
                << ", \"prepare_share\": " << s.prepare_share
                << ", \"local_share\": " << s.local_share
                << ", \"reservations\": " << s.reservations
                << ", \"reservations_admitted\": " << s.reservations_admitted
                << ", \"reservations_dropped\": " << s.reservations_dropped
                << ", \"repartitions\": " << s.repartitions;
      std::cout << ", \"lane_events\": [";
      for (std::size_t g = 0; g < s.lane_events.size(); ++g) {
        std::cout << (g ? ", " : "") << s.lane_events[g];
      }
      std::cout << "], \"lane_seconds\": [";
      for (std::size_t g = 0; g < s.lane_seconds.size(); ++g) {
        std::cout << (g ? ", " : "") << s.lane_seconds[g];
      }
      std::cout << "], \"event_imbalance\": " << s.event_imbalance
                << ", \"time_imbalance\": " << s.time_imbalance << "}"
                << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    std::cout << "  ]\n}\n";
  }

  if (table) {
    std::cout << "\nreference run: " << summary_reference.summary() << "\n";
  }
  if (!deterministic) {
    std::cerr << "FAIL: shard counts disagreed on the metrics within one "
                 "group count — the engine broke its determinism contract\n";
    return 1;
  }
  if (table) {
    std::cout << "determinism: every shard count reproduced its group "
                 "count's metrics bit for bit\n";
  }
  return 0;
}
