#pragma once
/// \file scenario_catalog.hpp
/// Declarative scenario API: a catalog of named, documented workload
/// scenarios (the paper's single-cell evaluation plus the stress scenarios
/// the examples explore). A scenario is plain data: look one up, set the
/// fields a run changes, and run it under a policy from a runtime:
///
///     const sim::ScenarioSpec& spec =
///         sim::ScenarioCatalog::builtins().at("highway");
///     sim::SimulationConfig cfg = spec.config;
///     cfg.total_requests = 200;
///     cfg.seed = 7;
///     const cellular::PolicyRuntime& runtime =
///         cellular::PolicyRuntime::defaultRuntime();
///     const sim::Metrics m =
///         sim::runSimulation(cfg, runtime.makeFactory("guard:8"));
///
/// Scenario names are listed by `facs_cli --list-scenarios` or
/// `ScenarioCatalog::builtins().describeAll()`. makeFactory() validates the
/// policy spec when it is called (\throws cellular::PolicySpecError), and
/// runSimulation() validates the configuration. A custom
/// `cellular::PolicyRuntime` resolves `registerExternal()` policies too.

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"

namespace facs::sim {

/// Raised for an unknown scenario name or a malformed catalog addition.
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& message)
      : std::runtime_error(message) {}
};

/// A named, documented simulation setup.
struct ScenarioSpec {
  std::string name;     ///< Catalog key, e.g. "urban-walkers".
  std::string summary;  ///< One line for --list-scenarios.
  /// Default admission policy for the scenario, as a registry spec. A run
  /// may still override it (--policy, or another spec for makeFactory()).
  std::string policy = "facs";
  SimulationConfig config;
};

/// A catalog of named scenarios. Every catalog starts from the built-in
/// set:
///
///   paper-single-cell     the paper's Section 4 evaluation cell
///   urban-walkers         pedestrian-heavy downtown micro-cell cluster
///   highway               7 micro-cells over a fast corridor, handoffs on
///   stadium-burst         flash crowd over 7 cells, Poisson, steady state
///   poisson-steady-state  the paper's cell driven to steady state
///
/// and is instance-scoped: add() (or addFile(), which parses a scenario
/// file — see sim/scenario_file.hpp) extends THIS catalog only, so
/// embedders can curate per-run scenario sets the way PolicyRuntime scopes
/// policies. builtins() is the shared read-only seed instance.
///
/// describeAll() annotates each entry with its cell count and default
/// shard count, so --list-scenarios shows where sharding pays off.
class ScenarioCatalog {
 public:
  /// A fresh catalog holding exactly the built-in scenarios.
  ScenarioCatalog();

  /// The shared, never-extended instance of the built-in set.
  [[nodiscard]] static const ScenarioCatalog& builtins();

  [[nodiscard]] bool contains(std::string_view name) const noexcept;
  /// Sorted names of every catalogued scenario.
  [[nodiscard]] std::vector<std::string> names() const;
  /// \throws ScenarioError when \p name is not catalogued.
  [[nodiscard]] const ScenarioSpec& at(std::string_view name) const;
  /// Multi-line human-readable dump of every entry (--list-scenarios).
  [[nodiscard]] std::string describeAll() const;

  /// Adds a scenario to this catalog.
  /// \throws ScenarioError on an empty or duplicate name.
  void add(ScenarioSpec spec);

  /// Parses the scenario file at \p path (validating its policy spec
  /// against \p runtime) and adds it. Returns the catalogued entry.
  /// \throws ScenarioFileError on parse problems, ScenarioError on a
  ///         duplicate name.
  const ScenarioSpec& addFile(const std::string& path,
                              const cellular::PolicyRuntime& runtime);

 private:
  std::map<std::string, ScenarioSpec, std::less<>> entries_;
};

}  // namespace facs::sim
