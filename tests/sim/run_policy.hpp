#pragma once
/// \file run_policy.hpp
/// Test helper: runs a configuration under a policy spec resolved through
/// a runtime (the shared default one unless a test passes its own).

#include <string_view>

#include "cellular/policy_registry.hpp"
#include "sim/simulator.hpp"

namespace facs::sim {

[[nodiscard]] inline Metrics runPolicy(
    const SimulationConfig& cfg, std::string_view policy,
    const cellular::PolicyRuntime& runtime =
        cellular::PolicyRuntime::defaultRuntime()) {
  return runSimulation(cfg, runtime.makeFactory(policy));
}

}  // namespace facs::sim
