#include "sim/scenario_catalog.hpp"

#include <sstream>

#include "sim/scenario_file.hpp"

namespace facs::sim {

namespace {

ScenarioSpec paperSingleCell() {
  ScenarioSpec s;
  s.name = "paper-single-cell";
  s.summary =
      "The paper's Section 4 evaluation: one 40 BU cell of 10 km, mixed "
      "60/30/10 traffic, speeds 0-120 km/h, GPS-tracked decisions.";
  s.config = SimulationConfig{};  // the defaults *are* the paper's setup
  return s;
}

ScenarioSpec urbanWalkers() {
  ScenarioSpec s;
  s.name = "urban-walkers";
  s.summary =
      "Downtown micro-cell cluster at lunch hour: slow erratic pedestrians "
      "plus a vehicular minority drifting between 7 small cells; the "
      "paper's hard-to-predict population, sharded per cell group.";
  s.config.rings = 1;               // a block of 7 downtown micro-cells
  s.config.cell_radius_km = 1.5;
  s.config.enable_handoffs = true;  // window shoppers do cross streets
  s.config.mobility_update_s = 10.0;
  s.config.shards = 4;
  s.config.total_requests = 60;
  s.config.arrival_window_s = 600.0;
  s.config.scenario.speed_min_kmh = 2.0;
  s.config.scenario.speed_max_kmh = 25.0;   // walkers and cyclists
  s.config.scenario.angle_sigma_deg = 45.0; // downtown grid: nobody walks straight
  s.config.scenario.distance_min_km = 0.0;
  s.config.scenario.distance_max_km = 1.5;  // spawn inside the home cell
  s.config.scenario.turn.sigma_max_deg = 60.0;  // window shopping
  s.config.scenario.mix = cellular::TrafficMix{0.50, 0.40, 0.10};
  return s;
}

ScenarioSpec highway() {
  ScenarioSpec s;
  s.name = "highway";
  s.summary =
      "7 micro-cells over a fast corridor: constant handoffs, dropping "
      "probability is the metric that matters.";
  s.config.rings = 1;
  s.config.cell_radius_km = 2.0;  // micro-cells: crossings every couple minutes
  s.config.total_requests = 150;
  s.config.arrival_window_s = 400.0;
  s.config.enable_handoffs = true;
  s.config.mobility_update_s = 5.0;
  s.config.scenario.speed_min_kmh = 70.0;
  s.config.scenario.speed_max_kmh = 130.0;
  s.config.scenario.angle_sigma_deg = 30.0;
  s.config.scenario.distance_min_km = 0.0;
  s.config.scenario.distance_max_km = 2.0;
  s.config.scenario.tracking_window_s = 10.0;
  s.config.scenario.gps_fix_period_s = 2.0;
  s.config.scenario.turn.sigma_max_deg = 10.0;  // cars follow the road
  return s;
}

ScenarioSpec stadiumBurst() {
  ScenarioSpec s;
  s.name = "stadium-burst";
  s.summary =
      "Flash crowd after a match: thousands of near-stationary users over "
      "the stadium cell and its 6 precinct cells, Poisson arrivals, "
      "warm-up excluded (steady state); the sharded engine's stress load.";
  s.config.rings = 1;               // stadium mast + surrounding precinct
  s.config.cell_radius_km = 2.0;
  s.config.enable_handoffs = true;  // the crowd drains outward on foot
  s.config.mobility_update_s = 10.0;
  s.config.shards = 4;
  s.config.total_requests = 3000;
  s.config.arrival_window_s = 3000.0;  // ~1 request/s against 40 BU cells
  s.config.arrivals = ArrivalProcess::Poisson;
  s.config.warmup_s = 600.0;  // measure after the crowd has built up
  s.config.scenario.speed_min_kmh = 0.0;
  s.config.scenario.speed_max_kmh = 6.0;     // people on foot
  s.config.scenario.angle_sigma_deg = 90.0;  // milling around
  s.config.scenario.distance_min_km = 0.0;
  s.config.scenario.distance_max_km = 2.0;   // everyone near a mast
  s.config.scenario.tracking_window_s = 10.0;
  s.config.scenario.gps_fix_period_s = 5.0;
  s.config.scenario.mix = cellular::TrafficMix{0.7, 0.25, 0.05};  // texting
  return s;
}

ScenarioSpec poissonSteadyState() {
  ScenarioSpec s;
  s.name = "poisson-steady-state";
  s.summary =
      "The paper's cell driven by a Poisson process past its fill-up "
      "transient — the steady-state alternative to the burst semantics.";
  s.config.total_requests = 500;
  s.config.arrival_window_s = 6000.0;
  s.config.arrivals = ArrivalProcess::Poisson;
  s.config.warmup_s = 600.0;
  return s;
}

}  // namespace

ScenarioCatalog::ScenarioCatalog() {
  for (ScenarioSpec spec : {paperSingleCell(), urbanWalkers(), highway(),
                            stadiumBurst(), poissonSteadyState()}) {
    const std::string name = spec.name;
    entries_.emplace(name, std::move(spec));
  }
}

const ScenarioCatalog& ScenarioCatalog::builtins() {
  static const ScenarioCatalog catalog;
  return catalog;
}

void ScenarioCatalog::add(ScenarioSpec spec) {
  if (spec.name.empty()) {
    throw ScenarioError("scenario needs a non-empty name");
  }
  const std::string name = spec.name;
  if (!entries_.emplace(name, std::move(spec)).second) {
    throw ScenarioError("scenario '" + name + "' already catalogued");
  }
}

const ScenarioSpec& ScenarioCatalog::addFile(
    const std::string& path, const cellular::PolicyRuntime& runtime) {
  ScenarioSpec spec = loadScenarioFile(path, runtime);
  const std::string name = spec.name;
  add(std::move(spec));
  return entries_.find(name)->second;
}

bool ScenarioCatalog::contains(std::string_view name) const noexcept {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> ScenarioCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, spec] : entries_) out.push_back(name);
  return out;
}

const ScenarioSpec& ScenarioCatalog::at(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += "|";
      known += n;
    }
    throw ScenarioError("unknown scenario '" + std::string{name} + "' (" +
                        known + ")");
  }
  return it->second;
}

std::string ScenarioCatalog::describeAll() const {
  // Cell count and default shards up front, so operators can see at a
  // glance which scenarios have enough cells for --shards to bite.
  std::ostringstream os;
  for (const auto& [name, spec] : entries_) {
    const int cells = cellular::hexDiskCellCount(spec.config.rings);
    os << "  " << name << "  [" << cells
       << (cells == 1 ? " cell" : " cells") << ", shards "
       << spec.config.shards << "]\n      " << spec.summary << "\n";
  }
  return os.str();
}

}  // namespace facs::sim
