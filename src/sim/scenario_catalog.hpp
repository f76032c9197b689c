#pragma once
/// \file scenario_catalog.hpp
/// Declarative scenario API: a catalog of named, documented workload
/// scenarios (the paper's single-cell evaluation plus the stress scenarios
/// the examples explore) and a fluent SimulationBuilder that composes a
/// catalog entry with per-run overrides into a validated SimulationConfig.
///
/// Typical use:
///
///     const sim::Metrics m = sim::SimulationBuilder::scenario("highway")
///                                .requests(200)
///                                .seed(7)
///                                .policy("guard:8")
///                                .run();
///
/// Scenario names are listed by `facs_cli --list-scenarios` or
/// `ScenarioCatalog::builtins().describeAll()`. Policies resolve through a
/// `cellular::PolicyRuntime` (default: the shared default runtime); pass a
/// custom runtime with `.runtime(rt)` to use `registerExternal()` policies.

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
  /// may still override it (--policy, SimulationBuilder::policy()).
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

/// Fluent composition of a scenario base with per-run overrides. Every
/// setter returns *this, so calls chain; build() validates the final
/// configuration, and run() executes it with the selected policy.
class SimulationBuilder {
 public:
  /// Starts from the paper's defaults (equivalent to "paper-single-cell").
  SimulationBuilder() = default;
  /// Starts from an existing configuration.
  explicit SimulationBuilder(SimulationConfig base)
      : config_{std::move(base)} {}
  /// Starts from a full scenario spec (config AND its default policy) —
  /// e.g. one parsed from a scenario file. The spec's policy is adopted
  /// verbatim (it was validated when the spec was built); .policy()
  /// still overrides it.
  explicit SimulationBuilder(const ScenarioSpec& spec)
      : config_{spec.config}, policy_spec_{spec.policy} {}
  /// Starts from a built-in scenario. \throws ScenarioError when unknown.
  [[nodiscard]] static SimulationBuilder scenario(std::string_view name);
  /// Starts from a scenario of \p catalog (which may hold file-loaded
  /// entries). \throws ScenarioError when unknown.
  [[nodiscard]] static SimulationBuilder scenario(std::string_view name,
                                                  const ScenarioCatalog& catalog);

  /// Resolves policy specs through \p rt instead of the shared default
  /// runtime — the hook for registerExternal() policies. Set it BEFORE
  /// .policy(): specs are validated eagerly against the current runtime.
  /// The runtime must outlive the builder and its factory().
  SimulationBuilder& runtime(const cellular::PolicyRuntime& rt);

  /// \name Run shape
  ///@{
  SimulationBuilder& requests(int n);
  SimulationBuilder& arrivalWindow(double seconds);
  SimulationBuilder& poissonArrivals(bool on = true);
  SimulationBuilder& warmup(double seconds);
  SimulationBuilder& seed(std::uint64_t seed);
  ///@}

  /// \name Network shape
  ///@{
  SimulationBuilder& rings(int rings);
  SimulationBuilder& cellRadiusKm(double km);
  SimulationBuilder& capacityBu(cellular::BandwidthUnits bu);
  SimulationBuilder& handoffs(bool on = true);
  SimulationBuilder& mobilityUpdate(double seconds);
  /// Worker shards for the run (1 = serial; results are bit-identical for
  /// any value — shards only change how much local work runs concurrently).
  SimulationBuilder& shards(int n);
  /// Commit lanes for the two-level commit scheme (1 = the serialized
  /// commit phase; see SimulationConfig::commit_groups).
  SimulationBuilder& commitGroups(int n);
  /// How cells map onto commit lanes (contiguous by id, or weighted by
  /// expected spawn load — see SimulationConfig::partition).
  SimulationBuilder& partition(PartitionStrategy strategy);
  /// Weighted partition only: re-draw the lane boundaries from observed
  /// load every this-many simulated seconds (0 = never; see
  /// SimulationConfig::repartition_every_s).
  SimulationBuilder& repartitionEvery(double seconds);
  /// Per-cell capacity override (heterogeneous deployments); repeatable.
  SimulationBuilder& cellCapacityBu(cellular::CellId cell,
                                    cellular::BandwidthUnits bu);
  /// Per-cell relative arrival weight (hotspot modelling; default 1).
  SimulationBuilder& cellArrivalScale(cellular::CellId cell, double scale);
  /// Per-cell service mix replacing the population-wide one.
  SimulationBuilder& cellTrafficMix(cellular::CellId cell,
                                    const cellular::TrafficMix& mix);
  /// Decide with AdmissionContext::explain set (rationales filled and
  /// truncations counted in Metrics::truncated_rationales; decisions are
  /// identical either way).
  SimulationBuilder& explain(bool on = true);
  ///@}

  /// \name User population
  ///@{
  SimulationBuilder& speedKmh(double lo, double hi);
  SimulationBuilder& angleDeg(double mean, double sigma);
  SimulationBuilder& distanceKm(double lo, double hi);
  SimulationBuilder& trackingWindow(double seconds);
  SimulationBuilder& gpsErrorM(double metres);
  SimulationBuilder& noGps();
  SimulationBuilder& trafficMix(const cellular::TrafficMix& mix);
  SimulationBuilder& scenarioParams(const ScenarioParams& params);
  ///@}

  /// Selects the admission policy by registry spec (default "facs").
  /// Validated eagerly: \throws cellular::PolicySpecError on a bad spec.
  SimulationBuilder& policy(std::string_view spec);

  /// The composed configuration without validation (for inspection).
  [[nodiscard]] const SimulationConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const std::string& policySpec() const noexcept {
    return policy_spec_;
  }

  /// The composed, validated configuration.
  /// \throws std::invalid_argument on a nonsensical combination.
  [[nodiscard]] SimulationConfig build() const;

  /// Controller factory for the selected policy spec.
  [[nodiscard]] ControllerFactory factory() const;

  /// build() + factory() + runSimulation in one call.
  [[nodiscard]] Metrics run() const;

 private:
  [[nodiscard]] const cellular::PolicyRuntime& runtimeOrDefault() const;
  [[nodiscard]] CellOverride& overrideFor(cellular::CellId cell);

  SimulationConfig config_{};
  std::string policy_spec_ = "facs";
  /// Null = the shared default runtime (resolved lazily, so a builder is
  /// still cheap to default-construct).
  const cellular::PolicyRuntime* runtime_ = nullptr;
};

}  // namespace facs::sim
