/// Property sweeps over the Mamdani engine: for every combination of
/// inference operators and defuzzifiers, the engine must keep its output
/// inside the output universe, behave deterministically, clamp inputs and
/// respect dominance of fully-fired rules. Run against both FACS engines
/// so the properties hold for the exact controllers the paper deploys.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/flc1.hpp"
#include "core/flc2.hpp"

namespace facs::fuzzy {
namespace {

using Config = std::tuple<TNorm, TNorm, SNorm, Defuzzifier>;

class EngineOperatorMatrix : public ::testing::TestWithParam<Config> {
 protected:
  EngineConfig makeConfig() const {
    const auto [conj, impl, agg, defuzz] = GetParam();
    EngineConfig cfg;
    cfg.conjunction = conj;
    cfg.implication = impl;
    cfg.aggregation = agg;
    cfg.defuzzifier = defuzz;
    cfg.resolution = 501;  // keep the matrix fast
    return cfg;
  }
};

TEST_P(EngineOperatorMatrix, Flc1OutputStaysInUnitInterval) {
  const MamdaniEngine engine = core::buildFlc1(makeConfig());
  for (double s : {0.0, 22.5, 60.0, 120.0}) {
    for (double a : {-180.0, -67.5, 0.0, 45.0, 180.0}) {
      for (double d : {0.0, 5.0, 10.0}) {
        const std::array<double, 3> in{s, a, d};
        const double out = engine.infer(in);
        EXPECT_GE(out, 0.0) << s << "," << a << "," << d;
        EXPECT_LE(out, 1.0) << s << "," << a << "," << d;
      }
    }
  }
}

TEST_P(EngineOperatorMatrix, Flc2OutputStaysInDecisionInterval) {
  const MamdaniEngine engine = core::buildFlc2(makeConfig());
  for (double cv : {0.0, 0.3, 0.7, 1.0}) {
    for (double r : {1.0, 5.0, 10.0}) {
      for (double cs : {0.0, 17.0, 40.0}) {
        const std::array<double, 3> in{cv, r, cs};
        const double out = engine.infer(in);
        EXPECT_GE(out, -1.0);
        EXPECT_LE(out, 1.0);
      }
    }
  }
}

TEST_P(EngineOperatorMatrix, InferenceIsDeterministic) {
  const MamdaniEngine engine = core::buildFlc1(makeConfig());
  const std::array<double, 3> in{33.3, -51.0, 7.7};
  const double first = engine.infer(in);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(engine.infer(in), first);
  }
}

TEST_P(EngineOperatorMatrix, InputClampingHolds) {
  const MamdaniEngine engine = core::buildFlc1(makeConfig());
  const std::array<double, 3> wild{500.0, -720.0, 99.0};
  const std::array<double, 3> edge{120.0, -180.0, 10.0};
  EXPECT_DOUBLE_EQ(engine.infer(wild), engine.infer(edge));
}

TEST_P(EngineOperatorMatrix, DominantRulePullsTowardItsConsequent) {
  const MamdaniEngine engine = core::buildFlc1(makeConfig());
  // Fa & St & N -> Cv9 (row 34) fires at strength 1 at the joint peak;
  // every configuration must put the output in the upper half.
  const std::array<double, 3> best{120.0, 0.0, 0.0};
  EXPECT_GT(engine.infer(best), 0.5);
  // Fa & B1 & F -> Cv1 (row 29): lower half.
  const std::array<double, 3> worst{120.0, -180.0, 10.0};
  EXPECT_LT(engine.infer(worst), 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    OperatorMatrix, EngineOperatorMatrix,
    ::testing::Combine(
        ::testing::Values(TNorm::Minimum, TNorm::AlgebraicProduct,
                          TNorm::BoundedDifference),
        ::testing::Values(TNorm::Minimum, TNorm::AlgebraicProduct),
        ::testing::Values(SNorm::Maximum, SNorm::AlgebraicSum,
                          SNorm::BoundedSum),
        ::testing::Values(Defuzzifier::Centroid, Defuzzifier::Bisector,
                          Defuzzifier::MeanOfMax)));

/// The operator families of the `facs` policy (`ops=minmax|luk`, mirrored
/// from applyOperatorFamily in core/facs.cpp) whose engines are piecewise
/// linear; `ops=prod` samples.
enum class OpsFamily { MinMax, Luk };

// ---------------------------------------------------------------------------
// The closed-form piecewise-linear path against a fine sampled reference.
// ---------------------------------------------------------------------------

constexpr int kReferenceResolution = 100001;
constexpr std::array<Defuzzifier, 5> kAllDefuzzifiers{
    Defuzzifier::Centroid, Defuzzifier::Bisector, Defuzzifier::MeanOfMax,
    Defuzzifier::SmallestOfMax, Defuzzifier::LargestOfMax};

/// The Min-clip / Max-aggregate curve of \p out at per-term \p activation,
/// sampled on kReferenceResolution points: x, mu and trapezoid weights.
struct SampledCurve {
  std::vector<double> x;
  std::vector<double> mu;
  std::vector<double> half_dx;
  double step = 0.0;
};

SampledCurve sampleMinMax(const LinguisticVariable& out,
                          const std::vector<double>& activation) {
  const Interval u = out.universe();
  SampledCurve c;
  c.step = u.width() / (kReferenceResolution - 1);
  c.x.resize(kReferenceResolution);
  c.mu.assign(kReferenceResolution, 0.0);
  for (int i = 0; i < kReferenceResolution; ++i) {
    c.x[static_cast<std::size_t>(i)] = u.lo + c.step * i;
  }
  for (std::size_t t = 0; t < out.termCount(); ++t) {
    if (activation[t] <= 0.0) continue;
    for (std::size_t i = 0; i < c.x.size(); ++i) {
      c.mu[i] =
          std::max(c.mu[i], std::min(activation[t], out.term(t).degree(c.x[i])));
    }
  }
  fillTrapezoidWeights(c.x, c.half_dx);
  return c;
}

/// Centroid and bisector match the reference to 1e-6; the max family to
/// one reference sample step (the sampled set is the grid points inside
/// the exact one).
void expectMatchesReference(Defuzzifier method, double exact,
                            const SampledCurve& ref, const std::string& what) {
  DefuzzScratch scratch;
  const double sampled =
      defuzzifySampled(method, ref.x, ref.mu, ref.half_dx, scratch);
  const bool area_based =
      method == Defuzzifier::Centroid || method == Defuzzifier::Bisector;
  EXPECT_NEAR(exact, sampled, area_based ? 1e-6 : ref.step)
      << toString(method) << " " << what;
}

/// Per-output-term activation of one traced inference (Max aggregation).
std::vector<double> termActivation(const MamdaniEngine& engine,
                                   const InferenceTrace& trace) {
  std::vector<double> activation(engine.output().termCount(), 0.0);
  for (const RuleActivation& a : trace.activations) {
    const std::size_t t = engine.rules().rule(a.rule_index).consequent;
    activation[t] = std::max(activation[t], a.firing_strength);
  }
  return activation;
}

using ExactConfig = std::tuple<bool, OpsFamily>;  // (FLC1?, ops)

class ExactAgainstSampled : public ::testing::TestWithParam<ExactConfig> {};

/// Random inputs fire random rule subsets of the deployed controllers;
/// every defuzzifier's closed-form answer matches fine sampling.
TEST_P(ExactAgainstSampled, RandomFiringsMatchFineSampling) {
  const auto [flc1, family] = GetParam();
  std::vector<MamdaniEngine> engines;
  for (const Defuzzifier d : kAllDefuzzifiers) {
    EngineConfig cfg;
    if (family == OpsFamily::Luk) cfg.conjunction = TNorm::BoundedDifference;
    cfg.defuzzifier = d;
    engines.push_back(flc1 ? core::buildFlc1(cfg) : core::buildFlc2(cfg));
    ASSERT_TRUE(engines.back().piecewiseLinear());
  }
  const MamdaniEngine& engine = engines.front();

  std::mt19937_64 rng{flc1 ? 11u : 12u};
  for (int n = 0; n < 40; ++n) {
    std::array<double, 3> in{};
    for (std::size_t v = 0; v < in.size(); ++v) {
      const Interval u = engine.input(v).universe();
      in[v] = std::uniform_real_distribution<double>{u.lo, u.hi}(rng);
    }
    const SampledCurve ref =
        sampleMinMax(engine.output(),
                     termActivation(engine, engine.inferTraced(in)));
    for (std::size_t d = 0; d < kAllDefuzzifiers.size(); ++d) {
      expectMatchesReference(kAllDefuzzifiers[d], engines[d].infer(in), ref,
                             "input " + std::to_string(n));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Flc1Flc2MinMaxLuk, ExactAgainstSampled,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(OpsFamily::MinMax, OpsFamily::Luk)),
    [](const ::testing::TestParamInfo<ExactConfig>& info) {
      return std::string{std::get<0>(info.param) ? "Flc1" : "Flc2"} +
             (std::get<1>(info.param) == OpsFamily::Luk ? "Luk" : "MinMax");
    });

/// A random piecewise-linear output variable: triangles and trapezoids
/// with zero-width (vertical) sides, supports running past the universe,
/// random activations. Interior vertical edges sit midway between
/// reference samples: that is the one place where the trapezoid rule
/// integrates a jump exactly, so the reference stays within 1e-6.
TEST(ExactAgainstSampled, RandomPiecewiseVariableMatchesFineSampling) {
  const Interval u{0.0, 1.0};
  const double step = u.width() / (kReferenceResolution - 1);
  std::mt19937_64 rng{2024};
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  const auto midway = [&](double x) {
    return u.lo + (std::floor((x - u.lo) / step) + 0.5) * step;
  };
  const auto width = [&] {
    return unit(rng) < 0.3 ? 0.0 : 0.05 + 0.4 * unit(rng);
  };

  for (int trial = 0; trial < 24; ++trial) {
    LinguisticVariable out{"out", u};
    const int terms = 2 + static_cast<int>(unit(rng) * 5.0);
    for (int t = 0; t < terms; ++t) {
      double left = width();
      double right = width();
      const std::string name = "t" + std::to_string(t);
      if (unit(rng) < 0.5) {
        if (left == 0.0 && right == 0.0) right = 0.2;
        double c = -0.2 + 1.4 * unit(rng);
        if (left == 0.0 || right == 0.0) c = midway(c);
        out.addTerm(name, makeTriangle(c, left, right));
      } else {
        double lo = -0.2 + 1.2 * unit(rng);
        double hi = lo + 0.02 + 0.3 * unit(rng);
        if (left == 0.0) lo = midway(lo);
        if (right == 0.0) hi = midway(hi);
        out.addTerm(name, makeTrapezoid(lo, hi, left, right));
      }
    }
    std::vector<double> activation(out.termCount(), 0.0);
    for (double& a : activation) a = unit(rng) < 0.7 ? unit(rng) : 0.0;

    const SampledCurve ref = sampleMinMax(out, activation);
    PiecewiseEnvelope envelope;
    for (const Defuzzifier d : kAllDefuzzifiers) {
      envelope.clear();
      for (std::size_t t = 0; t < out.termCount(); ++t) {
        if (activation[t] <= 0.0) continue;
        envelope.addClipped(out.term(t).mf().vertices(), activation[t]);
      }
      expectMatchesReference(d, envelope.defuzzify(d, u), ref,
                             "trial " + std::to_string(trial));
    }
  }
}

// ---------------------------------------------------------------------------
// Path selection comes from the engine's operators.
// ---------------------------------------------------------------------------

/// One input x in [0, 1] with two triangles, firing into \p out's first
/// and last terms.
MamdaniEngine twoRuleEngine(EngineConfig cfg, LinguisticVariable out) {
  MamdaniEngine e{"select", cfg};
  LinguisticVariable in{"x", Interval{0.0, 1.0}};
  in.addTerm("lo", makeTriangle(0.0, 0.0, 1.0));
  in.addTerm("hi", makeTriangle(1.0, 1.0, 0.0));
  const std::string first = out.term(0).name();
  const std::string last = out.term(out.termCount() - 1).name();
  e.addInput(std::move(in));
  e.setOutput(std::move(out));
  e.addRule({"lo"}, first);
  e.addRule({"hi"}, last);
  e.seal();
  return e;
}

LinguisticVariable triangleOutput() {
  LinguisticVariable out{"y", Interval{0.0, 1.0}};
  out.addTerm("a", makeTriangle(0.2, 0.3, 0.3));
  out.addTerm("b", makeTrapezoid(0.7, 0.8, 0.3, 0.0));
  return out;
}

/// Largest |output at resolution 101 - output at 4001| over a sweep of x.
double resolutionSensitivity(EngineConfig cfg, const LinguisticVariable& out) {
  cfg.resolution = 101;
  const MamdaniEngine coarse = twoRuleEngine(cfg, out);
  cfg.resolution = 4001;
  const MamdaniEngine fine = twoRuleEngine(cfg, out);
  double worst = 0.0;
  for (double x = 0.0; x <= 1.0; x += 1.0 / 64.0) {
    const std::array<double, 1> in{x};
    worst = std::max(worst, std::abs(coarse.infer(in) - fine.infer(in)));
  }
  return worst;
}

TEST(PathSelection, ExactEngineIgnoresResolution) {
  EXPECT_TRUE(twoRuleEngine({}, triangleOutput()).piecewiseLinear());
  EXPECT_EQ(resolutionSensitivity({}, triangleOutput()), 0.0);

  EngineConfig cfg;
  cfg.resolution = 101;
  const MamdaniEngine coarse = core::buildFlc2(cfg);
  cfg.resolution = 4001;
  const MamdaniEngine fine = core::buildFlc2(cfg);
  ASSERT_TRUE(coarse.piecewiseLinear());
  for (double cv : {0.05, 0.37, 0.8}) {
    for (double cs : {3.0, 21.0, 38.5}) {
      const std::array<double, 3> in{cv, 6.5, cs};
      EXPECT_EQ(coarse.infer(in), fine.infer(in));
    }
  }
}

TEST(PathSelection, ProborAggregationStillSamples) {
  EngineConfig cfg;
  cfg.aggregation = SNorm::AlgebraicSum;
  EXPECT_FALSE(twoRuleEngine(cfg, triangleOutput()).piecewiseLinear());
  EXPECT_GT(resolutionSensitivity(cfg, triangleOutput()), 0.0);
}

TEST(PathSelection, ProductImplicationStillSamples) {
  EngineConfig cfg;
  cfg.implication = TNorm::AlgebraicProduct;
  EXPECT_FALSE(twoRuleEngine(cfg, triangleOutput()).piecewiseLinear());
  EXPECT_GT(resolutionSensitivity(cfg, triangleOutput()), 0.0);
}

}  // namespace
}  // namespace facs::fuzzy
