/// \file paper_shape_test.cpp
/// The paper's qualitative claims as executable checks. Each test rebuilds
/// a figure bench's setup, runs it at a fixed seed and replication count,
/// and asserts the ordering the bench's `# paper shape:` line states.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cellular/policy_registry.hpp"
#include "sim/experiment.hpp"
#include "sim/workload.hpp"

namespace facs::sim {
namespace {

CurveSpec curve(std::string label, const SimulationConfig& base,
                const std::string& spec) {
  CurveSpec c;
  c.label = std::move(label);
  c.base = base;
  c.make_controller =
      cellular::PolicyRuntime::defaultRuntime().makeFactory(spec);
  return c;
}

/// Acceptance of one curve "at load": per replication, the mean percent
/// accepted over the loaded half of the paper's axis; then the mean and 95%
/// CI half-width of that per-replication value. Pooling the loaded points
/// before taking the CI keeps each replication one sample.
struct LoadedAcceptance {
  std::string label;
  double mean = 0.0;
  double ci95 = 0.0;
};

/// Runs \p curves at 60-100 requesting connections with \p replications
/// seeds from a fixed base seed, as the figure benches do with FACS.
std::vector<LoadedAcceptance> loadedAcceptance(
    const std::vector<CurveSpec>& curves, int replications) {
  SweepSpec sweep;
  sweep.xs = {60, 70, 80, 90, 100};
  sweep.replications = replications;
  sweep.base_seed = 42;
  sweep.threads = 2;
  const SweepResult r = runSweep(sweep, curves);

  std::vector<LoadedAcceptance> out;
  for (const CurveResult& c : r.curves) {
    RunningStat stat;
    for (int rep = 0; rep < replications; ++rep) {
      double sum = 0.0;
      for (const PointResult& p : c.points) {
        sum += p.runs[static_cast<std::size_t>(rep)].percentAccepted();
      }
      stat.add(sum / static_cast<double>(c.points.size()));
    }
    out.push_back({c.label, stat.mean(), stat.ci95()});
  }
  return out;
}

/// Strict ordering: the two 95% confidence intervals do not overlap.
void expectSeparatedAbove(const LoadedAcceptance& hi,
                          const LoadedAcceptance& lo) {
  EXPECT_GT(hi.mean - hi.ci95, lo.mean + lo.ci95)
      << hi.label << " = " << hi.mean << " +/- " << hi.ci95 << " vs "
      << lo.label << " = " << lo.mean << " +/- " << lo.ci95;
}

/// Weak ordering: \p hi is not below \p lo by more than a CI half-width.
void expectAtLeast(const LoadedAcceptance& hi, const LoadedAcceptance& lo) {
  EXPECT_GE(hi.mean, lo.mean - std::max(hi.ci95, lo.ci95))
      << hi.label << " = " << hi.mean << " +/- " << hi.ci95 << " vs "
      << lo.label << " = " << lo.mean << " +/- " << lo.ci95;
}

constexpr int kShapeReplications = 50;

/// Fig. 7: acceptance at load is ordered by speed, 60 > 30 >> 10 >= 4 km/h.
TEST(PaperShapeSweeps, Fig7OrderedBySpeedAtLoad) {
  std::vector<CurveSpec> curves;
  for (const double kmh : {60.0, 30.0, 10.0, 4.0}) {
    SimulationConfig base;
    base.scenario = fig7Scenario(kmh);
    curves.push_back(curve(std::to_string(static_cast<int>(kmh)) + "km/h",
                           base, "facs"));
  }
  const std::vector<LoadedAcceptance> a =
      loadedAcceptance(curves, kShapeReplications);
  ASSERT_EQ(a.size(), 4u);
  expectSeparatedAbove(a[0], a[1]);  // 60 > 30
  expectSeparatedAbove(a[1], a[2]);  // 30 >> 10
  EXPECT_GT(a[1].mean - a[2].mean, 15.0) << "30 km/h vs 10 km/h";
  expectAtLeast(a[2], a[3]);         // 10 >= 4
}

/// Fig. 8: acceptance at load falls monotonically with the angle off the
/// bearing to the BS; head-on users clearly beat perpendicular ones.
TEST(PaperShapeSweeps, Fig8MonotoneInAngle) {
  const std::vector<double> angles{0.0, 30.0, 50.0, 60.0, 90.0};
  std::vector<CurveSpec> curves;
  for (const double deg : angles) {
    SimulationConfig base;
    base.scenario = fig8Scenario(deg);
    curves.push_back(curve("angle=" + std::to_string(static_cast<int>(deg)),
                           base, "facs"));
  }
  const std::vector<LoadedAcceptance> a =
      loadedAcceptance(curves, kShapeReplications);
  ASSERT_EQ(a.size(), angles.size());
  for (std::size_t i = 1; i < a.size(); ++i) expectAtLeast(a[i - 1], a[i]);
  expectSeparatedAbove(a.front(), a.back());  // 0 > 90
}

/// Fig. 9: acceptance at load falls monotonically with distance to the BS,
/// with near users clearly ahead of the cell edge.
TEST(PaperShapeSweeps, Fig9MonotoneInDistance) {
  const std::vector<double> kms{1.0, 3.0, 7.0, 10.0};
  std::vector<CurveSpec> curves;
  for (const double km : kms) {
    SimulationConfig base;
    base.scenario = fig9Scenario(km);
    curves.push_back(
        curve(std::to_string(static_cast<int>(km)) + "km", base, "facs"));
  }
  const std::vector<LoadedAcceptance> a =
      loadedAcceptance(curves, kShapeReplications);
  ASSERT_EQ(a.size(), kms.size());
  for (std::size_t i = 1; i < a.size(); ++i) expectAtLeast(a[i - 1], a[i]);
  expectSeparatedAbove(a.front(), a.back());  // 1 km > 10 km
}

/// bench/fig10_facs_vs_scc.cpp at its default SCC calibration, with 30
/// replications per point instead of 10.
SweepResult fig10Sweep() {
  SweepSpec sweep;
  sweep.xs = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  sweep.replications = 30;
  sweep.base_seed = 42;
  sweep.threads = 2;

  SimulationConfig base;
  base.rings = 1;
  base.scenario = fig10Scenario();
  base.arrival_window_s = 600.0 / 7.0;
  return runSweep(sweep,
                  {curve("FACS", base, "facs"),
                   curve("SCC", base,
                         "scc:theta=0.85,sigma=8,growth=0,intervals=3")});
}

/// Fig. 10: FACS accepts more than SCC at light load and less at heavy
/// load, and first falls below it between 30 and 50 connections (the paper
/// puts the crossover near 50). Base seeds 1-40 and 42 all cross at 30,
/// 40 or 50; seed 42 crosses at 40.
TEST(PaperShapeSweeps, Fig10CrossoverInBand) {
  const SweepResult r = fig10Sweep();
  ASSERT_EQ(r.curves.size(), 2u);
  const std::vector<PointResult>& facs = r.curves[0].points;
  const std::vector<PointResult>& scc = r.curves[1].points;
  ASSERT_EQ(facs.size(), scc.size());
  ASSERT_EQ(facs.front().x, 10);
  ASSERT_EQ(facs.back().x, 100);

  EXPECT_GT(facs.front().mean, scc.front().mean) << "FACS at x = 10";
  EXPECT_LT(facs.back().mean, scc.back().mean) << "FACS at x = 100";

  int crossover = -1;
  for (std::size_t i = 0; i < facs.size(); ++i) {
    if (facs[i].mean < scc[i].mean) {
      crossover = facs[i].x;
      break;
    }
  }
  EXPECT_GE(crossover, 30);
  EXPECT_LE(crossover, 50);
  RecordProperty("crossover_x", crossover);
}

}  // namespace
}  // namespace facs::sim
