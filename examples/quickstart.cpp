/// \file quickstart.cpp
/// Five-minute tour of the FACS public API:
///   1. look the controller up in the policy registry;
///   2. evaluate admission requests from raw GPS measurements;
///   3. plug the controller into a base station ledger;
///   4. run a small end-to-end simulation from the scenario catalog.

#include <iostream>

#include "cellular/policy_registry.hpp"
#include "core/facs.hpp"
#include "sim/scenario_catalog.hpp"

int main() {
  using namespace facs;

  // 1. The controller, by policy spec, from an instance-scoped runtime (a
  //    snapshot of the built-in policy set; registerExternal() would add
  //    your own policies to THIS runtime only). "facs" is the paper's
  //    design: min/max Mamdani inference, centroid defuzzification, accept
  //    iff the crisp A/R value is positive. (Try "facs:tau=0.25" or
  //    "guard:8" — facs_cli --list-policies shows everything.)
  const cellular::PolicyRuntime runtime;
  const cellular::HexNetwork net{0};
  std::unique_ptr<cellular::AdmissionController> controller =
      runtime.makeController("facs", net);

  // FACS-specific introspection (the fuzzy engines) lives below the
  // AdmissionController interface; downcast for the tour.
  auto& facs = dynamic_cast<core::FacsController&>(*controller);
  std::cout << "Controller: " << facs.name() << " (" << facs.flc1().name()
            << ": " << facs.flc1().rules().size() << " rules, "
            << facs.flc2().name() << ": " << facs.flc2().rules().size()
            << " rules)\n\n";

  // 2. Evaluate a few users against a half-loaded 40 BU cell (Cs = 20).
  struct Candidate {
    const char* who;
    cellular::UserSnapshot snapshot;
    double demand_bu;
  };
  const Candidate candidates[] = {
      {"commuter driving at the BS (80 km/h, angle 0, 3 km), voice",
       {80.0, 0.0, 3.0, {}}, 5.0},
      {"pedestrian wandering at cell edge (4 km/h, angle 120, 9 km), video",
       {4.0, 120.0, 9.0, {}}, 10.0},
      {"cyclist passing tangentially (15 km/h, angle 60, 5 km), text",
       {15.0, 60.0, 5.0, {}}, 1.0},
  };
  for (const Candidate& c : candidates) {
    const core::FacsEvaluation eval = facs.evaluate(c.snapshot, c.demand_bu,
                                                    /*occupied_bu=*/20.0);
    std::cout << c.who << "\n  Cv=" << eval.cv << "  A/R=" << eval.ar
              << "  soft=" << core::toString(eval.soft) << "  -> "
              << (eval.accept ? "ADMIT" : "DENY") << "\n";
  }

  // 3. The same controller behind the AdmissionController interface, with a
  //    real bandwidth ledger enforcing the capacity invariant. `explain`
  //    opts into the rationale string — production decisions skip it (and
  //    its allocation) entirely, and read the ReasonCode instead.
  cellular::BaseStation station{0, cellular::kPaperCellCapacityBu};
  cellular::CallRequest request;
  request.call = 1;
  request.service = cellular::ServiceClass::Voice;
  request.demand_bu = 5;
  request.snapshot = candidates[0].snapshot;
  const cellular::AdmissionDecision d =
      controller->decide(request, {station, /*now_s=*/0.0, /*explain=*/true});
  std::cout << "\nLedger-backed decision: " << (d.accept ? "admit" : "deny")
            << " [" << toString(d.reason) << "] (" << d.rationale << ")\n";
  if (d.accept) {
    station.allocate(request.call, request.demand_bu, /*real_time=*/true);
    std::cout << "Station now: " << station.occupiedBu() << "/"
              << station.capacityBu() << " BU (RTC=" << station.rtc()
              << ", NRTC=" << station.nrtc() << ")\n";
  }

  // 4. A complete simulated experiment: the paper's single 40 BU cell
  //    offered 60 mixed connections, users tracked by (synthetic) GPS
  //    before each decision. A catalog entry is plain data: copy its
  //    config, set what this run changes, and run it under a policy from
  //    the runtime above.
  sim::SimulationConfig cfg =
      sim::ScenarioCatalog::builtins().at("paper-single-cell").config;
  cfg.total_requests = 60;
  cfg.seed = 2026;
  const sim::Metrics metrics =
      sim::runSimulation(cfg, runtime.makeFactory("facs"));
  std::cout << "\nSimulation: " << metrics.summary() << "\n";
  std::cout << "Percent accepted: " << metrics.percentAccepted() << "%\n";
  return 0;
}
