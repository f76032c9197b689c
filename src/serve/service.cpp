#include "serve/service.hpp"

#include <ostream>
#include <sstream>
#include <string>

namespace facs::serve {

namespace {

/// Integer delta helpers: the window's own activity is the difference of
/// run-cumulative counters, which is exact for integers (no float
/// accumulation drift across windows — deltas sum back to the totals
/// bit-for-bit).
[[nodiscard]] long long d(int now, int before) noexcept {
  return static_cast<long long>(now) - static_cast<long long>(before);
}
[[nodiscard]] long long d(std::uint64_t now, std::uint64_t before) noexcept {
  return static_cast<long long>(now - before);
}

}  // namespace

std::string windowJsonLine(const sim::WindowSnapshot& w,
                           const sim::Metrics& prev_cumulative) {
  const sim::Metrics& c = w.cumulative;
  const sim::Metrics& p = prev_cumulative;
  const sim::EngineWindowStats& s = w.stats;
  std::ostringstream os;
  os << "{\"window\": " << w.index
     << ", \"t0\": " << sim::shortestNumber(w.t0)
     << ", \"t1\": " << sim::shortestNumber(w.t1)
     << ", \"final\": " << (w.final_window ? "true" : "false")
     // This window's activity (exact integer deltas).
     << ", \"new_requests\": " << d(c.new_requests, p.new_requests)
     << ", \"new_accepted\": " << d(c.new_accepted, p.new_accepted)
     << ", \"new_blocked\": " << d(c.new_blocked, p.new_blocked)
     << ", \"handoff_requests\": " << d(c.handoff_requests, p.handoff_requests)
     << ", \"handoff_accepted\": " << d(c.handoff_accepted, p.handoff_accepted)
     << ", \"handoff_dropped\": " << d(c.handoff_dropped, p.handoff_dropped)
     << ", \"completed\": " << d(c.completed, p.completed)
     << ", \"engine_events\": " << d(c.engine_events, p.engine_events)
     << ", \"reservations_posted\": "
     << d(c.reservations_posted, p.reservations_posted)
     << ", \"reservations_admitted\": "
     << d(c.reservations_admitted, p.reservations_admitted)
     << ", \"reservations_dropped\": "
     << d(c.reservations_dropped, p.reservations_dropped)
     << ", \"outage_forced_drops\": "
     << d(c.outage_forced_drops, p.outage_forced_drops)
     << ", \"mutations_applied\": "
     << d(c.mutations_applied, p.mutations_applied)
     << ", \"repartitions\": " << d(c.repartitions, p.repartitions)
     << ", \"repartitions_skipped\": "
     << d(c.repartitions_skipped, p.repartitions_skipped)
     << ", \"demand_deltas\": " << d(c.demand_deltas, p.demand_deltas)
     << ", \"shadow_migrations\": "
     << d(c.shadow_migrations, p.shadow_migrations)
     // Run-cumulative state (doubles stay cumulative: windowed differences
     // of floats would not sum back exactly, so the stream never pretends
     // they do).
     << ", \"busy_bu_seconds_cum\": " << sim::shortestNumber(c.busy_bu_seconds)
     << ", \"observed_span_s_cum\": " << sim::shortestNumber(c.observed_span_s)
     << ", \"percent_accepted_cum\": "
     << sim::shortestNumber(c.percentAccepted())
     << ", \"mean_utilization_cum\": "
     << sim::shortestNumber(c.meanUtilization());
  // Per-lane committed events, run-cumulative (integers, so a consumer can
  // window them exactly): the live lane-balance signal — max/mean over the
  // array is the imbalance the weighted partition manages. Deterministic
  // (lane WALL times deliberately never enter the stream: the record must
  // be byte-identical run to run at a fixed seed).
  os << ", \"lane_events_cum\": [";
  for (std::size_t i = 0; i < c.lane_events.size(); ++i) {
    os << (i ? ", " : "") << c.lane_events[i];
  }
  os << "]"
     // Allocation substrate: the flat-memory story, per window.
     << ", \"pool_capacity\": " << s.pool_capacity
     << ", \"pool_live\": " << s.pool_live
     << ", \"pool_high_water\": " << s.pool_high_water
     << ", \"pool_acquired\": " << s.pool_acquired
     << ", \"pool_released\": " << s.pool_released
     << ", \"pool_grow_events\": " << s.pool_grow_events << "}";
  return os.str();
}

sim::Metrics serveSimulation(const sim::SimulationConfig& config,
                             const sim::ControllerFactory& make_controller,
                             const ServeOptions& options, std::ostream& out) {
  sim::Metrics prev;  // zero-initialized: window 0 deltas are its totals
  sim::ServiceHooks hooks;
  hooks.metrics_every_s = options.metrics_every_s;
  hooks.serve_duration_s = options.duration_s;
  hooks.on_window = [&](const sim::WindowSnapshot& w) {
    out << windowJsonLine(w, prev) << '\n';
    out.flush();  // live consumers read line-by-line
    prev = w.cumulative;
  };
  return sim::runSimulation(config, make_controller, hooks);
}

}  // namespace facs::serve
