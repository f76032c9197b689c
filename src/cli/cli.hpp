#pragma once
/// \file cli.hpp
/// Command-line front end for the simulator: parses `facs_cli` style
/// arguments into a SimulationConfig plus a policy spec, so operators can
/// run any scenario/policy combination without recompiling. Kept in the
/// library (rather than the tool's main.cpp) so the parsing logic is
/// unit-testable.
///
/// Policies are resolved through the `cellular::PolicyRuntime` handed to
/// parseCli() (default: the shared default-seeded runtime) and scenarios
/// through a `ScenarioCatalog` instance, so anything an embedder registers
/// — registerExternal() policies, file-loaded scenarios — is immediately
/// runnable from the command line.

#include <string>
#include <vector>

#include "sim/scenario_catalog.hpp"
#include "sim/simulator.hpp"

namespace facs::sim {

/// Fully parsed command line.
struct CliOptions {
  SimulationConfig config{};
  /// Registry policy spec, e.g. "facs", "guard:8", "facs:tau=0.25".
  /// Defaults to the selected scenario's policy ("facs" without one).
  std::string policy = "facs";
  /// Scenario the config was based on ("" = paper defaults): a catalog
  /// name (--scenario) or the name parsed from --scenario-file.
  std::string scenario;
  /// Its one-line summary, kept so --dump-scenario can round-trip it.
  std::string scenario_summary;
  /// Path given to --scenario-file ("" = none).
  std::string scenario_file;
  /// Scenario named by --dump-scenario ("" = none): print its canonical
  /// scenario-file text and exit. "-" dumps the fully composed run
  /// (scenario base + flag overrides) instead of a catalog entry — the
  /// parse→write fixed point the CI round-trip gate checks, and a way to
  /// save a hand-tuned command line as a scenario file.
  std::string dump_scenario;
  bool explain = false;  ///< --explain: rationale-filled decisions.
  bool serve = false;    ///< --serve: stream one JSONL record per window.
  /// --metrics-every S: streaming emission period in simulated seconds
  /// (0 = a record at every engine barrier). Only meaningful with --serve.
  double metrics_every_s = 60.0;
  /// --serve-duration S: always-on mode — keep Poisson arrivals coming
  /// until this simulated instant, then drain (0 = batch workload).
  double serve_duration_s = 0.0;
  bool json = false;     ///< --json: metrics as diffable JSON.
  bool csv = false;
  bool help = false;
  bool list_policies = false;
  bool list_scenarios = false;
  /// When set, run a sweep over these request counts instead of one run.
  std::vector<int> sweep_xs;
  int replications = 5;
  /// Worker threads for sweeps (0 = one per hardware thread).
  int threads = 0;
};

/// Error with the offending argument attached.
class CliError : public std::runtime_error {
 public:
  explicit CliError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Parses argv (excluding argv[0]), resolving policies through \p runtime
/// and scenarios through \p catalog.
///
/// Supported flags:
///   --policy SPEC       --scenario NAME        --scenario-file PATH
///   --dump-scenario NAME
///   --list-policies     --list-scenarios
///   --requests N        --window SECONDS       --seed N
///   --rings N           --cell-radius KM       --capacity BU
///   --speed MIN[:MAX]   --angle MEAN[:SIGMA]   --distance MIN[:MAX]
///   --tracking-window S --gps-error M          --no-gps
///   --poisson           --warmup S             --handoffs
///   --shards N          (worker shards; bit-identical at any count)
///   --commit-groups N   (two-level commit lanes; 1 = serialized commit)
///   --serve             --metrics-every S      --serve-duration S
///   --explain           (rationales on; truncations counted + warned)
///   --sweep X1,X2,...   --reps N               --threads N
///   --csv               --json                 --help
///
/// \throws CliError on unknown flags, missing values, malformed numbers,
///         unknown policies, unknown scenarios or unreadable/malformed
///         scenario files (scenario-file messages carry file + line).
[[nodiscard]] CliOptions parseCli(const std::vector<std::string>& args,
                                  const cellular::PolicyRuntime& runtime,
                                  const ScenarioCatalog& catalog);

/// parseCli() against the shared default runtime and the built-in catalog.
[[nodiscard]] CliOptions parseCli(const std::vector<std::string>& args);

/// Usage text for --help. Policy and scenario sections are generated from
/// the live runtime/catalog.
[[nodiscard]] std::string cliUsage(const cellular::PolicyRuntime& runtime,
                                   const ScenarioCatalog& catalog);
[[nodiscard]] std::string cliUsage();

/// Builds the controller factory for \p options via \p runtime.
/// \throws CliError on a malformed or unknown policy spec.
[[nodiscard]] ControllerFactory makeFactory(
    const CliOptions& options, const cellular::PolicyRuntime& runtime);
[[nodiscard]] ControllerFactory makeFactory(const CliOptions& options);

}  // namespace facs::sim
