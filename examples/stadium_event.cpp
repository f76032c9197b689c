/// \file stadium_event.cpp
/// Flash-crowd scenario (catalog "stadium-burst"): a match ends and
/// thousands of mostly stationary users light up the stadium cell and its
/// precinct neighbours (7 cells, sharded engine). Uses Poisson arrivals
/// with a warm-up so the numbers describe the saturated steady state, and
/// contrasts three philosophies: pack greedily (CS), protect handoffs
/// (predictive reservation) and protect ongoing QoS (FACS). Also shows the
/// Erlang-B sanity line for the equivalent per-cell single-class load.

#include <iomanip>
#include <iostream>

#include "cellular/policy_registry.hpp"
#include "sim/erlang.hpp"
#include "sim/scenario_catalog.hpp"

int main() {
  using namespace facs;

  std::cout << "Stadium event: saturated single cell, steady-state view\n\n";

  sim::SimulationConfig cfg =
      sim::ScenarioCatalog::builtins().at("stadium-burst").config;
  cfg.seed = 42;
  const cellular::PolicyRuntime runtime;

  struct Policy {
    const char* label;
    const char* spec;
  };
  const Policy policies[] = {
      {"CS", "cs"},
      {"PredictiveRsv", "rsv"},
      {"FACS", "facs"},
  };

  std::cout << std::left << std::setw(16) << "policy" << std::setw(10)
            << "accept%" << std::setw(10) << "block-p" << std::setw(10)
            << "util" << std::setw(10) << "video%" << "text%" << "\n";
  for (const Policy& p : policies) {
    const sim::Metrics m = sim::runSimulation(cfg, runtime.makeFactory(p.spec));
    std::cout << std::left << std::setw(16) << p.label << std::fixed
              << std::setprecision(1) << std::setw(10) << m.percentAccepted()
              << std::setprecision(3) << std::setw(10)
              << m.blockingProbability() << std::setw(10)
              << m.meanUtilization() << std::setprecision(1) << std::setw(10)
              << m.percentAcceptedForClass(cellular::ServiceClass::Video)
              << m.percentAcceptedForClass(cellular::ServiceClass::Text)
              << "\n";
  }

  // Theory anchor: the same offered BU load as a single-class M/M/c/c,
  // spread over the precinct's cells (arrivals spawn uniformly per cell).
  const int cells = cellular::hexDiskCellCount(cfg.rings);
  const double mean_holding =
      0.7 * 120.0 + 0.25 * 180.0 + 0.05 * 300.0;  // mix-weighted
  const double mean_demand = cfg.scenario.mix.meanDemandBu();
  const double offered_bu = (cfg.total_requests / cfg.arrival_window_s) *
                            mean_holding * mean_demand / cells;
  std::cout << "\nErlang-B anchor (per-cell single-class equivalent): offered "
            << std::setprecision(1) << offered_bu << " BU-erlangs onto "
            << cfg.capacity_bu << " BU -> blocking " << std::setprecision(3)
            << sim::erlangB(static_cast<int>(cfg.capacity_bu), offered_bu)
            << "\n(multi-class packing, mobility between the " << cells
            << " cells and fuzzy selectivity move the measured numbers "
               "around this anchor).\n";
  return 0;
}
