#pragma once
/// \file scenario_file.hpp
/// Scenario files — the workload counterpart of the fuzzy FDL format
/// (src/fuzzy/fdl.hpp): a TOML-like text form for everything a
/// ScenarioSpec holds, so workloads are data, not code. Every built-in
/// scenario serializes out (`facs_cli --dump-scenario NAME`) and any file
/// runs back in (`facs_cli --scenario-file PATH`) with bit-identical
/// metrics at any shard count — the round-trip property the tests and the
/// CI determinism gate assert.
///
/// Grammar (line oriented, '#' starts a comment outside quotes, blank
/// lines ignored; every `key = value` belongs to the most recent
/// `[section]` header):
///
///   [scenario]
///   extends = "highway"           # optional; must be the FIRST key: start
///                                 # from that scenario (a sibling
///                                 # NAME.scn file, else a catalog
///                                 # built-in) and override below
///   name = "highway"              # required (inherited via extends), the
///                                 # catalog key
///   summary = "one line of docs"
///   policy = "facs"               # registry spec; validated at parse time
///
///   [network]
///   rings = 1                     # hex rings around the centre cell
///   cell_radius_km = 2
///   capacity_bu = 40
///   handoffs = true
///   mobility_update_s = 5
///
///   [cell 3]                      # optional, repeatable: one section per
///   capacity_bu = 80              # cell; at least one key each. Replaces
///   arrival_scale = 3             # the base's [cell 3] wholesale under
///   mix = [0.2, 0.3, 0.5]         # extends. arrival_scale weights the
///                                 # spawn draw (hotspots); mix overrides
///                                 # the per-cell service mix
///
///   [run]
///   requests = 150
///   window_s = 400
///   arrivals = "uniform"          # or "poisson"
///   warmup_s = 0
///   seed = 1
///   shards = 1
///   commit_groups = 1             # two-level commit lanes (see README)
///   explain = false
///
///   [population]
///   speed_kmh = [70, 130]         # uniform draw [min, max]
///   angle_deg = [0, 30]           # [mean, sigma] of the heading deviation
///   distance_km = [0, 2]          # uniform draw [min, max]
///   mix = [0.6, 0.3, 0.1]         # text/voice/video arrival fractions
///   tracking_window_s = 10
///   gps_fix_period_s = 2
///   gps_error_m = 10              # or: none  (noiseless ground truth)
///
///   [turn]
///   sigma_max_deg = 10            # heading diffusion at speed 0
///   v_ref_kmh = 18                # exponential decay scale over speed
///
///   [at 120]                      # optional, repeatable: a scheduled
///   arrival_scale = 2.5           # scenario mutation applied at the tick
///                                 # barrier at T=120 s (serve/mutation.hpp).
///   [at 300]                      # Exactly one action key per section:
///   cell = 3                      # arrival_scale (global rate ramp, or a
///   outage = true                 # cell's spawn weight when cell is set),
///                                 # outage / restore (need cell), or
///   [at 360]                      # mix = [text, voice, video] (global or
///   cell = 3                      # per-cell). Equal timestamps apply in
///   restore = true                # file order. Under extends, the file's
///                                 # [at] sections append after the base's.
///
/// Every key is optional except `name`; omitted keys keep the paper's
/// defaults (a minimal file is just `[scenario]` + `name`), or — under
/// `extends` — the base's values. Unknown sections or keys are errors, not
/// warnings — a typo must not silently run a different workload. Doubles
/// are written in shortest round-trip form (std::to_chars), so
/// parse(write(spec)) reproduces the spec bit for bit and
/// write(parse(text)) is a canonical form. The writer always emits the
/// fully resolved document (never an `extends` reference), so the
/// canonical form of a derived file is self-contained.
///
/// `extends` resolution: loadScenarioFile() looks for `NAME.scn` next to
/// the extending file first, then falls back to the built-in catalog;
/// chains may nest, and a cycle (a.scn extends b.scn extends a.scn) is
/// detected and reported with the offending file and line. Parsing from a
/// string/stream has no directory, so there only built-ins resolve unless
/// the caller supplies a ScenarioBaseResolver.

#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/scenario_catalog.hpp"

namespace facs::sim {

/// Resolves the base scenario an `extends = "name"` key refers to. Throwing
/// (ScenarioFileError from a nested parse, or any std::exception for
/// unknown names and cycles) fails the parse; a plain exception's message
/// is wrapped with the extending file and line. An empty function means
/// `extends` resolves against the built-in catalog only.
using ScenarioBaseResolver =
    std::function<ScenarioSpec(const std::string& name)>;

/// Error raised by the scenario-file parser, carrying the source label
/// (file path, or "<string>" for in-memory text) and the 1-based line.
/// Policy-spec problems inside a file surface through this type too, so
/// the message names the offending file and line, not just the raw spec.
class ScenarioFileError : public std::runtime_error {
 public:
  ScenarioFileError(std::string_view source, int line,
                    const std::string& message);

  /// 1-based source line, or 0 when the problem concerns the whole file.
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  int line_;
};

/// Parses one scenario document. \p source_name labels errors.
/// \throws ScenarioFileError on any syntax or semantic problem (including
///         a policy spec \p runtime rejects, and configurations
///         validateConfig() rejects).
[[nodiscard]] ScenarioSpec parseScenarioFile(
    std::string_view text, const cellular::PolicyRuntime& runtime,
    std::string_view source_name = "<string>",
    const ScenarioBaseResolver& resolve_base = {});

/// Reads a scenario document from a stream (e.g. std::ifstream).
[[nodiscard]] ScenarioSpec parseScenarioFile(
    std::istream& in, const cellular::PolicyRuntime& runtime,
    std::string_view source_name = "<stream>",
    const ScenarioBaseResolver& resolve_base = {});

/// Opens and parses the file at \p path; errors name the path.
/// \throws ScenarioFileError (also when the file cannot be read).
[[nodiscard]] ScenarioSpec loadScenarioFile(
    const std::string& path, const cellular::PolicyRuntime& runtime);

/// Serializes a spec to the canonical file form.
/// parseScenarioFile(writeScenarioFile(s), rt) reproduces \p s exactly
/// (round-trip property, covered by tests and the CI gate).
[[nodiscard]] std::string writeScenarioFile(const ScenarioSpec& spec);

}  // namespace facs::sim
