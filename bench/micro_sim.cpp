/// \file micro_sim.cpp
/// Microbenchmarks of the simulation substrate: whole-run latency per
/// policy (the engine's per-group event heaps included), the per-decision
/// cost of the opt-in rationale API, SCC's decision cost as the number of
/// tracked shadows grows, and the cost of one SCC admit/release pair. All
/// controllers come from the policy registry.

#include <benchmark/benchmark.h>

#include "figure_common.hpp"

namespace {

using namespace facs;
using bench::policy;

sim::SimulationConfig benchConfig(int requests) {
  sim::SimulationConfig cfg;
  cfg.total_requests = requests;
  cfg.seed = 5;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  return cfg;
}

void BM_SimulationRunFacs(benchmark::State& state) {
  const auto cfg = benchConfig(static_cast<int>(state.range(0)));
  const auto factory = policy("facs");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::runSimulation(cfg, factory));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}
BENCHMARK(BM_SimulationRunFacs)->Arg(1)->Arg(25)->Arg(100);

void BM_SimulationRunCs(benchmark::State& state) {
  const auto cfg = benchConfig(static_cast<int>(state.range(0)));
  const auto factory = policy("cs");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::runSimulation(cfg, factory));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}
BENCHMARK(BM_SimulationRunCs)->Arg(1)->Arg(25)->Arg(100);

void BM_SimulationWithGpsTracking(benchmark::State& state) {
  sim::SimulationConfig cfg = benchConfig(50);
  cfg.scenario.tracking_window_s = 30.0;
  cfg.scenario.gps_error_m = 10.0;
  const auto factory = policy("facs");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::runSimulation(cfg, factory));
  }
}
BENCHMARK(BM_SimulationWithGpsTracking);

/// A fixed trace of varied requests on the 7-cell disk: every entry
/// changes the snapshot (hence Cv), the service class (R) and the target
/// cell, whose ledgers sit at different occupancies (Cs), so consecutive
/// decisions never repeat a fuzzy input. Benchmarks cycle through it.
struct DecisionTrace {
  static constexpr std::size_t kSize = 64;
  cellular::HexNetwork net{1};
  std::vector<cellular::CallRequest> requests;

  DecisionTrace() : requests(kSize) {
    for (const cellular::Cell& c : net.cells()) {
      const cellular::BandwidthUnits occupied = 40 * c.id / 6;
      if (occupied > 0) net.station(c.id).allocate(c.id + 1, occupied, true);
    }
    for (std::size_t i = 0; i < kSize; ++i) {
      cellular::CallRequest& r = requests[i];
      r.call = 100 + i;
      r.service = static_cast<cellular::ServiceClass>(i % 3);
      r.demand_bu = cellular::profileFor(r.service).demand_bu;
      r.snapshot = {5.0 + static_cast<double>(i * 37 % 115),
                    -180.0 + static_cast<double>(i * 53 % 360),
                    0.5 + static_cast<double>(i * 7 % 19) * 0.5,
                    {0.0, 0.0}};
      r.target_cell = static_cast<cellular::CellId>(i % net.cellCount());
    }
  }

  /// The next trace index after \p i, wrapping.
  [[nodiscard]] static std::size_t next(std::size_t i) noexcept {
    return i + 1 < kSize ? i + 1 : 0;
  }
};

/// The decision hot path with rationale off (the simulator's mode: no
/// string is built) vs on (the dashboard/debug mode), over the varied
/// trace. The gap is the cost the opt-in API removed from every simulated
/// decision.
template <bool kExplain>
void BM_DecideRationale(benchmark::State& state, const std::string& spec) {
  const DecisionTrace trace;
  const auto controller = policy(spec)(trace.net);
  std::size_t i = 0;
  for (auto _ : state) {
    const cellular::CallRequest& r = trace.requests[i];
    const cellular::AdmissionContext ctx{trace.net.station(r.target_cell), 0.0,
                                         kExplain};
    benchmark::DoNotOptimize(controller->decide(r, ctx));
    i = DecisionTrace::next(i);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_FacsDecideNoExplain(benchmark::State& state) {
  BM_DecideRationale<false>(state, "facs");
}
BENCHMARK(BM_FacsDecideNoExplain);
void BM_FacsDecideExplain(benchmark::State& state) {
  BM_DecideRationale<true>(state, "facs");
}
BENCHMARK(BM_FacsDecideExplain);
void BM_CsDecideNoExplain(benchmark::State& state) {
  BM_DecideRationale<false>(state, "cs");
}
BENCHMARK(BM_CsDecideNoExplain);
void BM_CsDecideExplain(benchmark::State& state) {
  BM_DecideRationale<true>(state, "cs");
}
BENCHMARK(BM_CsDecideExplain);
void BM_GuardDecideNoExplain(benchmark::State& state) {
  BM_DecideRationale<false>(state, "guard:8");
}
BENCHMARK(BM_GuardDecideNoExplain);
void BM_GuardDecideExplain(benchmark::State& state) {
  BM_DecideRationale<true>(state, "guard:8");
}
BENCHMARK(BM_GuardDecideExplain);

/// The split FACS pipeline, stage by stage, over the varied trace.
/// Precompute (FLC1 only) is what the engine hoists into the parallel
/// prepare phase; decide with a precomputed CV is what remains on the
/// commit path (FLC2 only). The win is WHERE the FLC1 share runs, not how
/// much total work exists.
void BM_FacsPrecompute(benchmark::State& state) {
  const DecisionTrace trace;
  const auto controller = policy("facs")(trace.net);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        controller->precompute(trace.requests[i].snapshot));
    i = DecisionTrace::next(i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FacsPrecompute);

void BM_FacsDecidePrecomputedCv(benchmark::State& state) {
  const DecisionTrace trace;
  const auto controller = policy("facs")(trace.net);
  std::vector<cellular::PredictedCv> predicted(DecisionTrace::kSize);
  for (std::size_t i = 0; i < DecisionTrace::kSize; ++i) {
    predicted[i] = controller->precompute(trace.requests[i].snapshot);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const cellular::CallRequest& r = trace.requests[i];
    cellular::AdmissionContext ctx{trace.net.station(r.target_cell), 0.0};
    ctx.predicted = predicted[i];
    benchmark::DoNotOptimize(controller->decide(r, ctx));
    i = DecisionTrace::next(i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FacsDecidePrecomputedCv);

/// SCC decision cost must stay flat as tracked shadows grow: decide()
/// reads the incremental per-cell demand accumulators (updated on call
/// arrival/departure/handoff) instead of re-integrating every shadow.
void BM_SccDecideVsTrackedCalls(benchmark::State& state) {
  const cellular::HexNetwork net{2};
  const auto scc = policy("scc")(net);
  const int tracked = static_cast<int>(state.range(0));
  for (int i = 0; i < tracked; ++i) {
    cellular::CallRequest r;
    r.call = static_cast<cellular::CallId>(i + 1);
    r.service = cellular::ServiceClass::Voice;
    r.demand_bu = 5;
    r.snapshot.position = {static_cast<double>(i % 10), 0.0};
    r.snapshot.speed_kmh = 30.0;
    r.target_cell = 0;
    scc->onAdmitted(r, {net.station(0), 0.0});
  }
  cellular::CallRequest probe;
  probe.call = 100000;
  probe.service = cellular::ServiceClass::Video;
  probe.demand_bu = 10;
  probe.snapshot.position = {1.0, 1.0};
  probe.target_cell = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scc->decide(probe, {net.station(0), 0.0}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SccDecideVsTrackedCalls)->Arg(8)->Arg(64)->Arg(256)->Arg(2048);

/// The other half of SCC's kernel: one onAdmitted + onReleased pair, each
/// casting or retracting a shadow over its footprint for every interval.
/// Anchored at a corner cell of the 19-cell disk, so reach=0 touches all
/// 19 cells and reach=2 only those within two hops of the corner.
void BM_SccAdmitRelease(benchmark::State& state) {
  const cellular::HexNetwork net{2};
  const auto scc =
      policy("scc:reach=" + std::to_string(state.range(0)))(net);
  const cellular::CellId corner = 7;  // hexDisk order: ring 2 starts at 7
  cellular::CallRequest r;
  r.call = 1;
  r.service = cellular::ServiceClass::Video;
  r.demand_bu = 10;
  r.snapshot.position = net.cell(corner).center + cellular::Vec2{0.4, -0.3};
  r.snapshot.speed_kmh = 40.0;
  r.snapshot.angle_deg = 30.0;
  r.target_cell = corner;
  const cellular::AdmissionContext ctx{net.station(corner), 0.0};
  for (auto _ : state) {
    scc->onAdmitted(r, ctx);
    scc->onReleased(r, ctx);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SccAdmitRelease)->Arg(0)->Arg(2);

/// Whole sharded runs on a multi-cell scenario (the wall-clock scaling
/// study lives in multi_cell_scaling; this pins the per-event overhead of
/// the barrier machinery at shards=1 vs a small fan-out).
void BM_ShardedRunMultiCell(benchmark::State& state) {
  sim::SimulationConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_km = 2.0;
  cfg.total_requests = 200;
  cfg.arrival_window_s = 400.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = 5;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  cfg.scenario.speed_min_kmh = 40.0;
  cfg.scenario.speed_max_kmh = 100.0;
  cfg.scenario.distance_max_km = 2.0;
  cfg.shards = static_cast<int>(state.range(0));
  const auto factory = policy("facs");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::runSimulation(cfg, factory));
  }
  state.SetItemsProcessed(state.iterations() * cfg.total_requests);
}
BENCHMARK(BM_ShardedRunMultiCell)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
