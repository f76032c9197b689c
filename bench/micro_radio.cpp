/// \file micro_radio.cpp
/// Microbenchmarks of the radio layer and the SIR admission path: per-call
/// latency of RadioModel::sinrDb and SirController::decide as the network
/// grows (rings 2/4/6 = 19/61/127 cells). The interference sum is the
/// exact whole-network walk, so both grow O(cells); these are the numbers
/// behind the precomputed gain tables' per-interferer cost. BM_CellAt times
/// the position-to-cell lookup every mobility step makes.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cellular/admission.hpp"
#include "cellular/network.hpp"
#include "cellular/policy_registry.hpp"
#include "cellular/radio.hpp"

namespace {

using namespace facs;

/// A hex disk with every station partially loaded (utilizations vary per
/// cell so no interferer drops out of the sum and no two cells look alike).
cellular::HexNetwork loadedNetwork(int rings) {
  cellular::HexNetwork net{rings, /*cell_radius_km=*/1.5};
  cellular::CallId next_call = 1;
  for (const cellular::Cell& c : net.cells()) {
    cellular::BaseStation& bs = net.station(c.id);
    const cellular::BandwidthUnits bu =
        1 + static_cast<cellular::BandwidthUnits>(c.id * 7 % 29);
    bs.allocate(next_call++, bu, (c.id % 2) == 0);
  }
  return net;
}

/// Positions inside the centre cell, rotated through per iteration so the
/// distance terms change and nothing can be hoisted out of the loop.
std::vector<cellular::Vec2> probePositions(const cellular::HexNetwork& net) {
  const cellular::Vec2 centre = net.cell(0).center;
  const double r = net.cellRadiusKm();
  return {
      {centre.x + 0.1 * r, centre.y + 0.2 * r},
      {centre.x - 0.4 * r, centre.y + 0.3 * r},
      {centre.x + 0.7 * r, centre.y - 0.1 * r},
      {centre.x - 0.2 * r, centre.y - 0.6 * r},
      {centre.x + 0.5 * r, centre.y + 0.5 * r},
  };
}

void BM_SinrDb(benchmark::State& state) {
  const cellular::HexNetwork net = loadedNetwork(static_cast<int>(state.range(0)));
  const cellular::RadioModel radio{net};
  const std::vector<cellular::Vec2> probes = probePositions(net);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(radio.sinrDb(probes[i], 0));
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(net.cellCount()) + " cells");
}
BENCHMARK(BM_SinrDb)->Arg(2)->Arg(4)->Arg(6);

/// Full admission decision through the registry-built `sir` controller:
/// range(0) = rings.
void BM_SirDecide(benchmark::State& state) {
  const cellular::HexNetwork net = loadedNetwork(static_cast<int>(state.range(0)));
  const std::unique_ptr<cellular::AdmissionController> controller =
      cellular::PolicyRuntime::defaultRuntime().makeController("sir", net);
  const std::vector<cellular::Vec2> probes = probePositions(net);
  cellular::CallRequest request;
  request.service = cellular::ServiceClass::Voice;
  request.demand_bu = 2;
  request.target_cell = 0;
  const cellular::AdmissionContext context{net.station(0)};
  std::size_t i = 0;
  for (auto _ : state) {
    request.snapshot.position = probes[i];
    benchmark::DoNotOptimize(controller->decide(request, context));
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(net.cellCount()) + " cells");
}
BENCHMARK(BM_SirDecide)->Arg(2)->Arg(4)->Arg(6);

/// HexNetwork::cellAt over random points of a rings-2 disk (radius 1.5 km):
/// uniform over a circle sized so about 10% of them miss every cell, the
/// share a mobility step that leaves coverage sees at most.
void BM_CellAt(benchmark::State& state) {
  const cellular::HexNetwork net{2, /*cell_radius_km=*/1.5};
  // A circle of 4.1 radii leaves ~10% of its area outside the 19 hexes.
  const double reach = 4.1 * net.cellRadiusKm();
  std::mt19937_64 gen{42};
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  std::vector<cellular::Vec2> points(4096);
  std::size_t outside = 0;
  for (cellular::Vec2& p : points) {
    const double rho = reach * std::sqrt(unit(gen));
    const double theta = 2.0 * cellular::kPi * unit(gen);
    p = {rho * std::cos(theta), rho * std::sin(theta)};
    if (!net.cellAt(p)) ++outside;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.cellAt(points[i]));
    i = (i + 1) % points.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["outside_frac"] =
      static_cast<double>(outside) / static_cast<double>(points.size());
}
BENCHMARK(BM_CellAt);

}  // namespace

BENCHMARK_MAIN();
