#include "sim/scenario_file.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

namespace facs::sim {

namespace {

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

/// Cuts an end-of-line comment, honouring quotes so a '#' inside a summary
/// string survives. Tracks escape state explicitly (not just the previous
/// byte) so a string ending in an escaped backslash — `"...\\"` — still
/// closes its quote.
std::string_view stripComment(std::string_view line) noexcept {
  bool quoted = false;
  bool escaped = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (escaped) {
      escaped = false;
    } else if (quoted && c == '\\') {
      escaped = true;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (c == '#' && !quoted) {
      return line.substr(0, i);
    }
  }
  return line;
}

/// Quotes a string for the line-oriented format: backslash escapes for
/// the quote, the backslash itself and line breaks (which would otherwise
/// split the value across lines and break parse(write(s)) == s).
std::string quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  out += '"';
  return out;
}

/// Parses one scenario document; one instance per parse call.
class Parser {
 public:
  Parser(std::string_view source, const cellular::PolicyRuntime& runtime,
         const ScenarioBaseResolver& resolve_base)
      : source_{source}, runtime_{runtime}, resolve_base_{resolve_base} {}

  ScenarioSpec run(std::string_view text) {
    std::size_t pos = 0;
    while (pos <= text.size()) {
      const std::size_t eol = text.find('\n', pos);
      const std::string_view raw =
          text.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
      ++line_;
      handleLine(trim(stripComment(raw)));
      if (eol == std::string_view::npos) break;
      pos = eol + 1;
    }
    finishCellSection();
    finishAtSection();
    if (spec_.name.empty()) {
      throw ScenarioFileError(source_, 0,
                              "missing [scenario] name = \"...\" entry");
    }
    try {
      validateConfig(spec_.config);
    } catch (const std::invalid_argument& e) {
      throw ScenarioFileError(source_, 0, e.what());
    }
    return std::move(spec_);
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ScenarioFileError(source_, line_, message);
  }

  void handleLine(std::string_view line) {
    if (line.empty()) return;
    if (line.front() == '[') {
      if (line.back() != ']') fail("unterminated section header");
      startSection(trim(line.substr(1, line.size() - 2)));
      return;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail("expected 'key = value' or a [section] header, got '" +
           std::string{line} + "'");
    }
    const std::string key{trim(line.substr(0, eq))};
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) fail("empty key");
    if (value.empty()) fail("key '" + key + "' has no value");
    if (section_.empty()) {
      fail("key '" + key + "' before any [section] header");
    }
    // Per-section duplicate-key tracking; each [cell N] is its own scope,
    // and each [at T] section (repeatable, even at one instant) likewise.
    const std::string scope =
        section_ == "cell" ? "cell " + std::to_string(cell_id_)
        : section_ == "at" ? "at#" + std::to_string(at_index_)
                           : section_;
    if (!seen_.insert(scope + "." + key).second) {
      fail("duplicate key '" + key + "' in [" + scope + "]");
    }
    dispatch(key, value);
    // Anything after the first key forecloses `extends`: the base would
    // overwrite what the file already set.
    extends_allowed_ = false;
  }

  void startSection(std::string_view name) {
    finishCellSection();
    finishAtSection();
    if (name == "scenario" || name == "network" || name == "run" ||
        name == "population" || name == "turn") {
      if (!sections_.insert(std::string{name}).second) {
        fail("duplicate section [" + std::string{name} + "]");
      }
      section_ = std::string{name};
      if (name != "scenario") extends_allowed_ = false;
      return;
    }
    if (name.substr(0, 5) == "cell " || name == "cell") {
      const std::string_view id_text = trim(name.substr(4));
      if (id_text.empty()) fail("[cell] needs an id: [cell N]");
      const std::uint64_t id = parseUnsigned(id_text, "cell id");
      if (id > std::numeric_limits<cellular::CellId>::max()) {
        fail("cell id " + std::string{id_text} + " out of range");
      }
      cell_id_ = static_cast<cellular::CellId>(id);
      // One section per cell PER FILE; a base's entry (via extends) is
      // replaced wholesale — the derived file re-describes that cell.
      if (!file_cells_.insert(cell_id_).second) {
        fail("duplicate cell id " + std::to_string(cell_id_) +
             " (a [cell N] section per cell)");
      }
      cell_index_ = spec_.config.cell_overrides.size();
      for (std::size_t i = 0; i < spec_.config.cell_overrides.size(); ++i) {
        if (spec_.config.cell_overrides[i].cell == cell_id_) {
          cell_index_ = i;
          spec_.config.cell_overrides[i] = CellOverride{cell_id_, {}, {}, {}};
          break;
        }
      }
      if (cell_index_ == spec_.config.cell_overrides.size()) {
        spec_.config.cell_overrides.push_back(CellOverride{cell_id_, {}, {}, {}});
      }
      section_ = "cell";
      extends_allowed_ = false;
      cell_header_line_ = line_;
      cell_key_seen_ = false;
      return;
    }
    if (name.substr(0, 3) == "at " || name == "at") {
      const std::string_view t_text = trim(name.substr(2));
      if (t_text.empty()) fail("[at] needs a time: [at T]");
      const double t = parseNumber(t_text, "at time");
      // Append order is file order; under extends the base's mutations are
      // already in the vector, so the derived file's sections come after —
      // the documented equal-timestamp tie-break.
      spec_.config.mutations.push_back(serve::ScenarioMutation{});
      spec_.config.mutations.back().at_s = t;
      at_index_ = spec_.config.mutations.size() - 1;
      section_ = "at";
      extends_allowed_ = false;
      at_header_line_ = line_;
      at_action_seen_ = false;
      return;
    }
    fail("unknown section [" + std::string{name} +
         "] (scenario|network|cell N|run|population|turn|at T)");
  }

  /// A [cell N] section must actually set something — an empty one is a
  /// typo, not a no-op.
  void finishCellSection() {
    if (section_ == "cell" && !cell_key_seen_) {
      throw ScenarioFileError(
          source_, cell_header_line_,
          "[cell " + std::to_string(cell_id_) +
              "] sets no keys (capacity_bu|arrival_scale|mix)");
    }
  }

  /// An [at T] section must name exactly one action; validateMutation
  /// rejects doubled actions as they dispatch, and this catches zero.
  void finishAtSection() {
    if (section_ == "at" && !at_action_seen_) {
      throw ScenarioFileError(
          source_, at_header_line_,
          "[at] section sets no action (arrival_scale|outage|restore|mix)");
    }
  }

  void dispatch(const std::string& key, std::string_view value) {
    SimulationConfig& cfg = spec_.config;
    ScenarioParams& pop = cfg.scenario;
    if (section_ == "scenario") {
      if (key == "extends") {
        applyExtends(parseString(value, key));
      } else if (key == "name") {
        spec_.name = parseString(value, key);
        if (spec_.name.empty()) fail("name must not be empty");
      } else if (key == "summary") {
        spec_.summary = parseString(value, key);
      } else if (key == "policy") {
        spec_.policy = parseString(value, key);
        try {
          (void)runtime_.makeFactory(spec_.policy);
        } catch (const cellular::PolicySpecError& e) {
          fail(e.what());
        }
      } else {
        unknownKey(key, "extends|name|summary|policy");
      }
    } else if (section_ == "network") {
      if (key == "rings") {
        cfg.rings = parseInt(value, key);
      } else if (key == "cell_radius_km") {
        cfg.cell_radius_km = parseNumber(value, key);
      } else if (key == "capacity_bu") {
        cfg.capacity_bu = parseInt(value, key);
      } else if (key == "handoffs") {
        cfg.enable_handoffs = parseBool(value, key);
      } else if (key == "mobility_update_s") {
        cfg.mobility_update_s = parseNumber(value, key);
      } else {
        unknownKey(key,
                   "rings|cell_radius_km|capacity_bu|handoffs|"
                   "mobility_update_s");
      }
    } else if (section_ == "cell") {
      CellOverride& entry = cfg.cell_overrides[cell_index_];
      if (key == "capacity_bu") {
        entry.capacity_bu = parseInt(value, key);
        cell_key_seen_ = true;
      } else if (key == "arrival_scale") {
        entry.arrival_scale = parseNumber(value, key);
        cell_key_seen_ = true;
      } else if (key == "mix") {
        const std::vector<double> f = parseList(value, key, 3);
        try {
          entry.mix = cellular::TrafficMix{f[0], f[1], f[2]};
        } catch (const std::invalid_argument& e) {
          fail(e.what());
        }
        cell_key_seen_ = true;
      } else {
        unknownKey(key, "capacity_bu|arrival_scale|mix");
      }
    } else if (section_ == "run") {
      if (key == "requests") {
        cfg.total_requests = parseInt(value, key);
      } else if (key == "window_s") {
        cfg.arrival_window_s = parseNumber(value, key);
      } else if (key == "arrivals") {
        const std::string kind = parseString(value, key);
        if (kind == "uniform") {
          cfg.arrivals = ArrivalProcess::UniformBurst;
        } else if (kind == "poisson") {
          cfg.arrivals = ArrivalProcess::Poisson;
        } else {
          fail("arrivals must be \"uniform\" or \"poisson\", got \"" + kind +
               "\"");
        }
      } else if (key == "warmup_s") {
        cfg.warmup_s = parseNumber(value, key);
      } else if (key == "seed") {
        cfg.seed = parseUnsigned(value, key);
      } else if (key == "shards") {
        cfg.shards = parseInt(value, key);
      } else if (key == "commit_groups") {
        cfg.commit_groups = parseInt(value, key);
      } else if (key == "partition") {
        const std::string kind = parseString(value, key);
        if (kind == "contiguous") {
          cfg.partition = PartitionStrategy::Contiguous;
        } else if (kind == "weighted") {
          cfg.partition = PartitionStrategy::Weighted;
        } else {
          fail("partition must be \"contiguous\" or \"weighted\", got \"" +
               kind + "\"");
        }
      } else if (key == "repartition_every_s") {
        cfg.repartition_every_s = parseNumber(value, key);
      } else if (key == "explain") {
        cfg.explain = parseBool(value, key);
      } else {
        unknownKey(key,
                   "requests|window_s|arrivals|warmup_s|seed|shards|"
                   "commit_groups|partition|repartition_every_s|"
                   "explain");
      }
    } else if (section_ == "population") {
      if (key == "speed_kmh") {
        const auto [lo, hi] = parsePair(value, key);
        pop.speed_min_kmh = lo;
        pop.speed_max_kmh = hi;
      } else if (key == "angle_deg") {
        const auto [mean, sigma] = parsePair(value, key);
        pop.angle_mean_deg = mean;
        pop.angle_sigma_deg = sigma;
      } else if (key == "distance_km") {
        const auto [lo, hi] = parsePair(value, key);
        pop.distance_min_km = lo;
        pop.distance_max_km = hi;
      } else if (key == "mix") {
        const std::vector<double> f = parseList(value, key, 3);
        try {
          pop.mix = cellular::TrafficMix{f[0], f[1], f[2]};
        } catch (const std::invalid_argument& e) {
          fail(e.what());
        }
      } else if (key == "tracking_window_s") {
        pop.tracking_window_s = parseNumber(value, key);
      } else if (key == "gps_fix_period_s") {
        pop.gps_fix_period_s = parseNumber(value, key);
      } else if (key == "gps_error_m") {
        if (value == "none") {
          pop.gps_error_m.reset();
        } else {
          pop.gps_error_m = parseNumber(value, key);
        }
      } else {
        unknownKey(key,
                   "speed_kmh|angle_deg|distance_km|mix|tracking_window_s|"
                   "gps_fix_period_s|gps_error_m");
      }
    } else if (section_ == "at") {
      serve::ScenarioMutation& m = cfg.mutations[at_index_];
      const auto setOp = [&](serve::MutationOp op) {
        if (at_action_seen_) {
          fail(
              "[at] sections take exactly one action key "
              "(arrival_scale|outage|restore|mix)");
        }
        m.op = op;
        at_action_seen_ = true;
      };
      if (key == "cell") {
        const std::uint64_t id = parseUnsigned(value, key);
        if (id > std::numeric_limits<cellular::CellId>::max()) {
          fail("cell id " + std::string{value} + " out of range");
        }
        m.cell = static_cast<cellular::CellId>(id);
      } else if (key == "arrival_scale") {
        setOp(serve::MutationOp::ArrivalScale);
        m.scale = parseNumber(value, key);
      } else if (key == "outage") {
        if (!parseBool(value, key)) fail("outage only takes true");
        setOp(serve::MutationOp::Outage);
      } else if (key == "restore") {
        if (!parseBool(value, key)) fail("restore only takes true");
        setOp(serve::MutationOp::Restore);
      } else if (key == "mix") {
        const std::vector<double> f = parseList(value, key, 3);
        try {
          m.mix = cellular::TrafficMix{f[0], f[1], f[2]};
        } catch (const std::invalid_argument& e) {
          fail(e.what());
        }
        setOp(serve::MutationOp::Mix);
      } else {
        unknownKey(key, "cell|arrival_scale|outage|restore|mix");
      }
    } else {  // turn
      if (key == "sigma_max_deg") {
        pop.turn.sigma_max_deg = parseNumber(value, key);
      } else if (key == "v_ref_kmh") {
        pop.turn.v_ref_kmh = parseNumber(value, key);
      } else {
        unknownKey(key, "sigma_max_deg|v_ref_kmh");
      }
    }
  }

  [[noreturn]] void unknownKey(const std::string& key,
                               std::string_view accepted) const {
    fail("unknown key '" + key + "' in [" + section_ + "] (accepted: " +
         std::string{accepted} + ")");
  }

  /// `extends = "base"`: replace the (still pristine) spec with the base's
  /// so everything after overrides it. Only legal as the very first key —
  /// later, the base would silently clobber what the file already set.
  /// Nested ScenarioFileErrors (a broken base FILE) propagate untouched so
  /// they name the base; everything else (unknown base, cycle) is wrapped
  /// with this file and line.
  void applyExtends(const std::string& base) {
    if (!extends_allowed_) {
      fail("extends must be the first key of the file");
    }
    // A base is a scenario NAME — the resolver derives any sibling path
    // from it. Path spellings ("./self", "sub/../x") would also evade the
    // string-equality cycle detector, so they are rejected outright.
    if (base.empty() || base.find('/') != std::string::npos ||
        base.find('\\') != std::string::npos) {
      fail("extends expects a scenario name, not a path: \"" + base + "\"");
    }
    try {
      if (resolve_base_) {
        spec_ = resolve_base_(base);
      } else {
        spec_ = ScenarioCatalog::builtins().at(base);
      }
    } catch (const ScenarioFileError&) {
      throw;
    } catch (const std::exception& e) {
      fail(std::string{"extends \""} + base + "\": " + e.what());
    }
  }

  double parseNumber(std::string_view value, std::string_view key) const {
    double v = 0.0;
    const auto res = std::from_chars(value.data(), value.data() + value.size(), v);
    // Finite only: from_chars accepts "nan"/"inf", but no config field
    // means anything non-finite — NaN would also slide through every
    // range check in validateConfig().
    if (res.ec != std::errc{} || res.ptr != value.data() + value.size() ||
        !std::isfinite(v)) {
      fail(std::string{key} + " expects a finite number, got '" +
           std::string{value} + "'");
    }
    return v;
  }

  int parseInt(std::string_view value, std::string_view key) const {
    int v = 0;
    const auto res = std::from_chars(value.data(), value.data() + value.size(), v);
    if (res.ec != std::errc{} || res.ptr != value.data() + value.size()) {
      fail(std::string{key} + " expects an integer, got '" +
           std::string{value} + "'");
    }
    return v;
  }

  std::uint64_t parseUnsigned(std::string_view value,
                              std::string_view key) const {
    std::uint64_t v = 0;
    const auto res = std::from_chars(value.data(), value.data() + value.size(), v);
    if (res.ec != std::errc{} || res.ptr != value.data() + value.size()) {
      fail(std::string{key} + " expects a non-negative integer, got '" +
           std::string{value} + "'");
    }
    return v;
  }

  bool parseBool(std::string_view value, std::string_view key) const {
    if (value == "true") return true;
    if (value == "false") return false;
    fail(std::string{key} + " expects true or false, got '" +
         std::string{value} + "'");
  }

  /// Strict quoted-string scan: one opening quote, escapes resolved, one
  /// unescaped closing quote, nothing after it. Anything else errors —
  /// `name = "a" "b"` or an escaped-away terminator must not silently
  /// produce a garbage value.
  std::string parseString(std::string_view value, std::string_view key) const {
    if (value.size() < 2 || value.front() != '"') {
      fail(std::string{key} + " expects a quoted string, got '" +
           std::string{value} + "'");
    }
    std::string out;
    out.reserve(value.size() - 2);
    std::size_t i = 1;
    for (; i < value.size(); ++i) {
      const char c = value[i];
      if (c == '\\') {
        if (i + 1 >= value.size()) {
          fail(std::string{key} + ": dangling escape at end of value");
        }
        const char escaped = value[++i];
        // \n and \r restore the line breaks quote() folded away; any other
        // escaped character stands for itself.
        out += escaped == 'n' ? '\n' : escaped == 'r' ? '\r' : escaped;
      } else if (c == '"') {
        break;
      } else {
        out += c;
      }
    }
    if (i >= value.size()) {
      fail(std::string{key} + ": unterminated quoted string");
    }
    if (i + 1 != value.size()) {
      fail(std::string{key} + ": unexpected content after the closing quote");
    }
    return out;
  }

  std::vector<double> parseList(std::string_view value, std::string_view key,
                                std::size_t count) const {
    if (value.size() < 2 || value.front() != '[' || value.back() != ']') {
      fail(std::string{key} + " expects a [a, b, ...] list, got '" +
           std::string{value} + "'");
    }
    std::vector<double> out;
    std::string_view rest = trim(value.substr(1, value.size() - 2));
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      out.push_back(parseNumber(trim(rest.substr(0, comma)), key));
      if (comma == std::string_view::npos) break;
      rest = trim(rest.substr(comma + 1));
      if (rest.empty()) fail(std::string{key} + ": trailing comma");
    }
    if (out.size() != count) {
      fail(std::string{key} + " expects exactly " + std::to_string(count) +
           " values, got " + std::to_string(out.size()));
    }
    return out;
  }

  std::pair<double, double> parsePair(std::string_view value,
                                      std::string_view key) const {
    const std::vector<double> v = parseList(value, key, 2);
    return {v[0], v[1]};
  }

  std::string source_;
  const cellular::PolicyRuntime& runtime_;
  const ScenarioBaseResolver& resolve_base_;
  ScenarioSpec spec_;
  int line_ = 0;
  std::string section_;
  std::set<std::string> seen_;      ///< "section.key" per plain section.
  std::set<std::string> sections_;  ///< Singleton sections seen.
  std::set<cellular::CellId> file_cells_;  ///< [cell N] ids of THIS file.
  cellular::CellId cell_id_ = 0;    ///< Valid while section_ == "cell".
  std::size_t cell_index_ = 0;      ///< Index into cell_overrides.
  int cell_header_line_ = 0;
  bool cell_key_seen_ = false;
  std::size_t at_index_ = 0;        ///< Valid while section_ == "at".
  int at_header_line_ = 0;
  bool at_action_seen_ = false;
  bool extends_allowed_ = true;     ///< Cleared by the first key/section.
};

}  // namespace

ScenarioFileError::ScenarioFileError(std::string_view source, int line,
                                     const std::string& message)
    : std::runtime_error(std::string{source} +
                         (line > 0 ? ":" + std::to_string(line) : "") + ": " +
                         message),
      line_{line} {}

ScenarioSpec parseScenarioFile(std::string_view text,
                               const cellular::PolicyRuntime& runtime,
                               std::string_view source_name,
                               const ScenarioBaseResolver& resolve_base) {
  return Parser{source_name, runtime, resolve_base}.run(text);
}

ScenarioSpec parseScenarioFile(std::istream& in,
                               const cellular::PolicyRuntime& runtime,
                               std::string_view source_name,
                               const ScenarioBaseResolver& resolve_base) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseScenarioFile(buffer.str(), runtime, source_name, resolve_base);
}

namespace {

/// Directory part of a path (empty when the path has none), so extends
/// bases resolve relative to the extending file.
[[nodiscard]] std::string directoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? std::string{} : path.substr(0, slash + 1);
}

/// loadScenarioFile with the chain of files currently being resolved, so a
/// cycle (a.scn extends b.scn extends a.scn) fails with a readable chain
/// instead of recursing forever. \p chain holds the paths in resolution
/// order, the innermost last.
ScenarioSpec loadScenarioFileChained(const std::string& path,
                                     const cellular::PolicyRuntime& runtime,
                                     std::vector<std::string>& chain) {
  for (const std::string& seen : chain) {
    if (seen == path) {
      std::string cycle;
      for (const std::string& p : chain) cycle += p + " -> ";
      throw std::runtime_error("extends cycle: " + cycle + path);
    }
  }
  std::ifstream in{path};
  if (!in) {
    throw ScenarioFileError(path, 0, "cannot open scenario file");
  }
  chain.push_back(path);
  const std::string dir = directoryOf(path);
  const ScenarioBaseResolver resolver =
      [&](const std::string& name) -> ScenarioSpec {
    // A sibling NAME.scn beats a catalog built-in: local families can
    // shadow and extend shipped scenarios.
    const std::string sibling = dir + name + ".scn";
    if (std::ifstream probe{sibling}) {
      return loadScenarioFileChained(sibling, runtime, chain);
    }
    return ScenarioCatalog::builtins().at(name);  // ScenarioError names it
  };
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ScenarioSpec spec =
      parseScenarioFile(buffer.str(), runtime, path, resolver);
  chain.pop_back();
  return spec;
}

}  // namespace

ScenarioSpec loadScenarioFile(const std::string& path,
                              const cellular::PolicyRuntime& runtime) {
  std::vector<std::string> chain;
  return loadScenarioFileChained(path, runtime, chain);
}

std::string writeScenarioFile(const ScenarioSpec& spec) {
  const SimulationConfig& cfg = spec.config;
  const ScenarioParams& pop = cfg.scenario;
  // The header embeds the name only when it is comment-safe; anything
  // exotic (line breaks are legal in strings) must not leak outside the
  // comment and break the write->parse fixed point.
  std::string safe_name = spec.name;
  for (const char c : safe_name) {
    if (c == '\n' || c == '\r' || c == '#') {
      safe_name = "NAME";
      break;
    }
  }
  std::ostringstream os;
  os << "# FACS scenario file — grammar in sim/scenario_file.hpp and the\n"
        "# README's \"Scenario files\" section. Regenerate with\n"
        "# facs_cli --dump-scenario "
     << (safe_name.empty() ? std::string{"NAME"} : safe_name) << ".\n\n";
  os << "[scenario]\n"
     << "name = " << quote(spec.name) << "\n"
     << "summary = " << quote(spec.summary) << "\n"
     << "policy = " << quote(spec.policy) << "\n\n";
  os << "[network]\n"
     << "rings = " << cfg.rings << "\n"
     << "cell_radius_km = " << shortestNumber(cfg.cell_radius_km) << "\n"
     << "capacity_bu = " << cfg.capacity_bu << "\n"
     << "handoffs = " << (cfg.enable_handoffs ? "true" : "false") << "\n"
     << "mobility_update_s = " << shortestNumber(cfg.mobility_update_s)
     << "\n\n";
  for (const CellOverride& o : cfg.cell_overrides) {
    os << "[cell " << o.cell << "]\n";
    if (o.capacity_bu) os << "capacity_bu = " << *o.capacity_bu << "\n";
    if (o.arrival_scale) {
      os << "arrival_scale = " << shortestNumber(*o.arrival_scale) << "\n";
    }
    if (o.mix) {
      os << "mix = ["
         << shortestNumber(o.mix->fraction(cellular::ServiceClass::Text))
         << ", "
         << shortestNumber(o.mix->fraction(cellular::ServiceClass::Voice))
         << ", "
         << shortestNumber(o.mix->fraction(cellular::ServiceClass::Video))
         << "]\n";
    }
    os << "\n";
  }
  os << "[run]\n"
     << "requests = " << cfg.total_requests << "\n"
     << "window_s = " << shortestNumber(cfg.arrival_window_s) << "\n"
     << "arrivals = "
     << (cfg.arrivals == ArrivalProcess::Poisson ? "\"poisson\""
                                                 : "\"uniform\"")
     << "\n"
     << "warmup_s = " << shortestNumber(cfg.warmup_s) << "\n"
     << "seed = " << cfg.seed << "\n"
     << "shards = " << cfg.shards << "\n"
     << "commit_groups = " << cfg.commit_groups << "\n"
     << "partition = "
     << (cfg.partition == PartitionStrategy::Weighted ? "\"weighted\""
                                                      : "\"contiguous\"")
     << "\n"
     << "repartition_every_s = " << shortestNumber(cfg.repartition_every_s)
     << "\n"
     << "explain = " << (cfg.explain ? "true" : "false") << "\n\n";
  os << "[population]\n"
     << "speed_kmh = [" << shortestNumber(pop.speed_min_kmh) << ", "
     << shortestNumber(pop.speed_max_kmh) << "]\n"
     << "angle_deg = [" << shortestNumber(pop.angle_mean_deg) << ", "
     << shortestNumber(pop.angle_sigma_deg) << "]\n"
     << "distance_km = [" << shortestNumber(pop.distance_min_km) << ", "
     << shortestNumber(pop.distance_max_km) << "]\n"
     << "mix = ["
     << shortestNumber(pop.mix.fraction(cellular::ServiceClass::Text)) << ", "
     << shortestNumber(pop.mix.fraction(cellular::ServiceClass::Voice)) << ", "
     << shortestNumber(pop.mix.fraction(cellular::ServiceClass::Video))
     << "]\n"
     << "tracking_window_s = " << shortestNumber(pop.tracking_window_s) << "\n"
     << "gps_fix_period_s = " << shortestNumber(pop.gps_fix_period_s) << "\n"
     << "gps_error_m = "
     << (pop.gps_error_m ? shortestNumber(*pop.gps_error_m)
                         : std::string{"none"})
     << "\n\n";
  os << "[turn]\n"
     << "sigma_max_deg = " << shortestNumber(pop.turn.sigma_max_deg) << "\n"
     << "v_ref_kmh = " << shortestNumber(pop.turn.v_ref_kmh) << "\n";
  // Mutations in config (= file) order; the parser re-appends them in the
  // same order, so equal-timestamp tie-breaks survive the round trip.
  for (const serve::ScenarioMutation& m : cfg.mutations) {
    os << "\n[at " << shortestNumber(m.at_s) << "]\n";
    if (m.cell) os << "cell = " << *m.cell << "\n";
    switch (m.op) {
      case serve::MutationOp::ArrivalScale:
        os << "arrival_scale = " << shortestNumber(m.scale) << "\n";
        break;
      case serve::MutationOp::Outage:
        os << "outage = true\n";
        break;
      case serve::MutationOp::Restore:
        os << "restore = true\n";
        break;
      case serve::MutationOp::Mix:
        os << "mix = ["
           << shortestNumber(m.mix->fraction(cellular::ServiceClass::Text))
           << ", "
           << shortestNumber(m.mix->fraction(cellular::ServiceClass::Voice))
           << ", "
           << shortestNumber(m.mix->fraction(cellular::ServiceClass::Video))
           << "]\n";
        break;
    }
  }
  return os.str();
}

}  // namespace facs::sim
