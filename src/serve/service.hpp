#pragma once
/// \file service.hpp
/// Streaming service mode: run the engine with window hooks and emit one
/// JSON Lines record per metrics window to a stream — the always-on
/// deployment story (`facs_cli --serve`). Each record carries the window's
/// INTEGER DELTAS (what happened in this window: requests, accepts,
/// blocks, completions...) plus the run-cumulative doubles, the
/// run-cumulative per-lane committed-event counts (`lane_events_cum` — the
/// live lane-balance signal; wall-clock lane times stay out of the stream
/// so records remain byte-identical run to run) and the
/// allocation-substrate stats (call-pool occupancy/high-water/growth) a
/// supervisor needs to assert the engine's memory is flat.
///
/// Equivalence contract (tested in tests/sim/serve_mode_test.cpp): windows
/// are aligned to the engine's own tick-window barriers, so a streamed run
/// commits identically to a batch run — the integer deltas of all windows
/// sum exactly to the batch totals, and the final record's cumulative
/// counters are bit-identical to the batch Metrics, at any shards ×
/// commit_groups. Repeated runs of a fixed (config, seed, shards,
/// commit_groups) are byte-identical, and at a fixed commit_groups every
/// record is shard-count-invariant (the call pool recycles slots in the
/// serial barrier, so even its stats do not depend on the worker count).
/// One caveat for runs
/// WITHOUT handoffs (no natural barriers): the emission period itself
/// windows the run, which lowers how many calls are materialized at once
/// — every metric still matches the batch run except
/// peak_concurrent_calls, which is smaller (that saving is the point).

#include <iosfwd>

#include "sim/simulator.hpp"

namespace facs::serve {

/// Knobs of one streaming run.
struct ServeOptions {
  /// Emission period (simulated seconds): a record per first barrier at or
  /// past each multiple. 0 = a record at every barrier.
  double metrics_every_s = 60.0;
  /// > 0: always-on mode — ignore total_requests as a count and keep the
  /// Poisson process running until this simulated instant, then drain.
  /// 0 = serve the configured batch workload (still streamed).
  double duration_s = 0.0;
};

/// One JSON line (no trailing newline) for a window snapshot given the
/// previous window's cumulative state. Exposed for tests; serveSimulation
/// is the loop around it.
[[nodiscard]] std::string windowJsonLine(const sim::WindowSnapshot& w,
                                         const sim::Metrics& prev_cumulative);

/// Runs the simulation in streaming mode, writing one JSONL record per
/// window to \p out, and returns the final Metrics (bit-identical to the
/// batch runSimulation for the same config when duration_s == 0).
sim::Metrics serveSimulation(const sim::SimulationConfig& config,
                             const sim::ControllerFactory& make_controller,
                             const ServeOptions& options, std::ostream& out);

}  // namespace facs::serve
