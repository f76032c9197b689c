/// \file micro_fuzzy.cpp
/// Microbenchmarks of the fuzzy substrate: per-inference latency of FLC1,
/// FLC2 and the full FACS cascade — the numbers that decide whether the
/// controller is viable on a base station's admission path ("suitable for
/// real-time operation", paper Section 3).

#include <benchmark/benchmark.h>

#include <array>
#include <memory>

#include "cellular/network.hpp"
#include "cellular/policy_registry.hpp"
#include "core/facs.hpp"
#include "fuzzy/fdl.hpp"

namespace {

using namespace facs;

/// FACS controller by registry spec, downcast for the FACS-specific
/// `evaluate()` benchmarks (only the registry constructs controllers).
std::unique_ptr<core::FacsController> facsFromRegistry(
    const std::string& spec) {
  const cellular::HexNetwork net{0};
  std::unique_ptr<cellular::AdmissionController> controller =
      cellular::PolicyRuntime::defaultRuntime().makeController(spec, net);
  auto* typed = dynamic_cast<core::FacsController*>(controller.get());
  if (typed == nullptr) throw std::logic_error("spec is not a FACS policy");
  controller.release();
  return std::unique_ptr<core::FacsController>{typed};
}

constexpr std::size_t kVariedInputs = 64;

/// kVariedInputs points spread over all three input universes of \p engine
/// (coprime strides per input), so the set of fired rules — hence the number
/// of active output terms — changes from one inference to the next.
std::array<std::array<double, 3>, kVariedInputs> variedInputs(
    const fuzzy::MamdaniEngine& engine) {
  constexpr std::array<std::size_t, 3> kStrides{37, 53, 29};
  std::array<std::array<double, 3>, kVariedInputs> inputs{};
  for (std::size_t i = 0; i < kVariedInputs; ++i) {
    for (std::size_t v = 0; v < 3; ++v) {
      const fuzzy::Interval u = engine.input(v).universe();
      const double f = static_cast<double>(i * kStrides[v] % kVariedInputs) /
                       static_cast<double>(kVariedInputs - 1);
      inputs[i][v] = u.lo + f * u.width();
    }
  }
  return inputs;
}

void inferVaried(benchmark::State& state, const fuzzy::MamdaniEngine& engine) {
  const auto inputs = variedInputs(engine);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.infer(inputs[i]));
    i = i + 1 < kVariedInputs ? i + 1 : 0;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Flc1Inference(benchmark::State& state) {
  inferVaried(state, core::buildFlc1());
}
BENCHMARK(BM_Flc1Inference);

void BM_Flc2Inference(benchmark::State& state) {
  inferVaried(state, core::buildFlc2());
}
BENCHMARK(BM_Flc2Inference);

void BM_FacsEvaluate(benchmark::State& state) {
  const auto facs = facsFromRegistry("facs");
  cellular::UserSnapshot user;
  user.speed_kmh = 45.0;
  user.angle_deg = 20.0;
  user.distance_km = 4.0;
  double cs = 0.0;
  for (auto _ : state) {
    cs = cs < 40.0 ? cs + 1.0 : 0.0;
    benchmark::DoNotOptimize(facs->evaluate(user, 5.0, cs));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FacsEvaluate);

/// The full cascade per operator family, over 64 varied (Cv, R, Cs) inputs
/// — the snapshot (hence Cv), the demand and the occupancy all change from
/// one evaluation to the next. Both defuzzify exactly: `facs` (min/max) a
/// piecewise-linear curve, `facs:ops=prod` (product implication,
/// probabilistic OR) a piecewise-quadratic one.
void BM_FacsEvaluateVaried(benchmark::State& state, const char* spec) {
  const auto facs = facsFromRegistry(spec);
  constexpr std::array<double, 3> kDemands{1.0, 5.0, 10.0};
  std::array<cellular::UserSnapshot, kVariedInputs> users{};
  std::array<double, kVariedInputs> demand{};
  std::array<double, kVariedInputs> occupied{};
  for (std::size_t i = 0; i < kVariedInputs; ++i) {
    users[i].speed_kmh = 5.0 + static_cast<double>(i * 37 % 115);
    users[i].angle_deg = -180.0 + static_cast<double>(i * 53 % 360);
    users[i].distance_km = 0.5 + static_cast<double>(i * 7 % 19) * 0.5;
    demand[i] = kDemands[i % kDemands.size()];
    occupied[i] = static_cast<double>(i * 11 % 41);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(facs->evaluate(users[i], demand[i], occupied[i]));
    i = i + 1 < kVariedInputs ? i + 1 : 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_FacsEvaluateVaried, minmax, "facs");
BENCHMARK_CAPTURE(BM_FacsEvaluateVaried, prod, "facs:ops=prod");

void BM_FdlParseFlc1(benchmark::State& state) {
  const std::string doc = fuzzy::toFdl(core::buildFlc1());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuzzy::parseFdl(doc));
  }
}
BENCHMARK(BM_FdlParseFlc1);

void BM_MembershipDegree(benchmark::State& state) {
  const fuzzy::Triangular tri{30.0, 15.0, 30.0};
  double x = 0.0;
  for (auto _ : state) {
    x = x < 70.0 ? x + 0.1 : 0.0;
    benchmark::DoNotOptimize(tri.degree(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MembershipDegree);

}  // namespace

BENCHMARK_MAIN();
