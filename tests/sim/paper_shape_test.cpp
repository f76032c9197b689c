/// \file paper_shape_test.cpp
/// The paper's qualitative claims as executable checks. Each test rebuilds
/// a figure bench's setup, runs it at a fixed seed and replication count,
/// and asserts the ordering the bench's `# paper shape:` line states.

#include <gtest/gtest.h>

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
/// load, and first falls below it between 20 and 60 connections (the paper
/// puts the crossover near 50).
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
  EXPECT_GE(crossover, 20);
  EXPECT_LE(crossover, 60);
  RecordProperty("crossover_x", crossover);
}

}  // namespace
}  // namespace facs::sim
