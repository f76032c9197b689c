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
#include <utility>
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

// ---------------------------------------------------------------------------
// Exact inference against an independent fine-sampled reference.
// ---------------------------------------------------------------------------

constexpr int kReferenceResolution = 100001;
constexpr std::array<Defuzzifier, 5> kAllDefuzzifiers{
    Defuzzifier::Centroid, Defuzzifier::Bisector, Defuzzifier::MeanOfMax,
    Defuzzifier::SmallestOfMax, Defuzzifier::LargestOfMax};
constexpr std::array<TNorm, 3> kImplications{
    TNorm::Minimum, TNorm::AlgebraicProduct, TNorm::BoundedDifference};
constexpr std::array<SNorm, 3> kAggregations{
    SNorm::Maximum, SNorm::AlgebraicSum, SNorm::BoundedSum};

/// The aggregated output curve of \p out at per-term \p activation,
/// straight from the terms' degree(): mu(x) folds
/// apply(aggregation, mu, apply(implication, a_t, term_t(x))) over the
/// active terms in declaration order. Sampled on kReferenceResolution
/// points.
struct SampledCurve {
  const LinguisticVariable* out = nullptr;
  std::vector<double> activation;
  TNorm implication = TNorm::Minimum;
  SNorm aggregation = SNorm::Maximum;
  std::vector<double> x;
  std::vector<double> mu;
  double step = 0.0;

  [[nodiscard]] double at(double v) const {
    double m = 0.0;
    for (std::size_t t = 0; t < out->termCount(); ++t) {
      if (activation[t] <= 0.0) continue;
      m = apply(aggregation, m,
                apply(implication, activation[t], out->term(t).degree(v)));
    }
    return m;
  }
};

SampledCurve sampleCurve(const LinguisticVariable& out,
                         std::vector<double> activation, TNorm implication,
                         SNorm aggregation) {
  const Interval u = out.universe();
  SampledCurve c;
  c.out = &out;
  c.activation = std::move(activation);
  c.implication = implication;
  c.aggregation = aggregation;
  c.step = u.width() / (kReferenceResolution - 1);
  for (int i = 0; i < kReferenceResolution; ++i) {
    c.x.push_back(u.lo + c.step * i);
    c.mu.push_back(c.at(c.x.back()));
  }
  return c;
}

/// The sampled defuzzifiers: trapezoid-rule centroid and bisector (linear
/// inside the segment that holds half the area). The max family takes the
/// sharp apexes within 1e-9 of the peak as points, and each run of two or
/// more grid points within 1e-9 of it as an interval: mu(x) is bisected
/// between the run's end and its outside neighbour, so the run measures
/// the interval it samples (a count of points would weigh each run by one
/// point too many or too few). Mean of max averages the points only where
/// there is no interval. A curve without area or peak gives the midpoint.
double referenceDefuzzify(Defuzzifier method, const SampledCurve& c) {
  const std::vector<double>& x = c.x;
  const std::vector<double>& mu = c.mu;
  const double midpoint = 0.5 * (x.front() + x.back());
  std::vector<double> cumulative(x.size(), 0.0);
  double num = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    const double w = 0.5 * (x[i] - x[i - 1]);
    num += w * (x[i] * mu[i] + x[i - 1] * mu[i - 1]);
    cumulative[i] = cumulative[i - 1] + w * (mu[i] + mu[i - 1]);
  }
  const double area = cumulative.back();
  if (method == Defuzzifier::Centroid) {
    return area < 1e-12 ? midpoint : num / area;
  }
  if (method == Defuzzifier::Bisector) {
    if (area < 1e-12) return midpoint;
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), 0.5 * area) -
        cumulative.begin());
    if (i == 0) return x.front();
    const double seg = cumulative[i] - cumulative[i - 1];
    const double t = seg > 0.0 ? (0.5 * area - cumulative[i - 1]) / seg : 0.0;
    return x[i - 1] + t * (x[i] - x[i - 1]);
  }
  // The grid misses a sharp apex that falls between two of its points, so
  // each sampled local maximum (a sample above its left neighbour and not
  // below its right one) is refined by a ternary search of mu(x) between
  // its neighbours. The peak is the highest sample or refined apex.
  std::vector<std::pair<double, double>> apexes;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool rises = i == 0 || mu[i] > mu[i - 1];
    const bool holds = i + 1 == x.size() || mu[i] >= mu[i + 1];
    if (!rises || !holds) continue;
    double lo = x[i == 0 ? i : i - 1];
    double hi = x[i + 1 == x.size() ? i : i + 1];
    for (int k = 0; k < 100; ++k) {
      const double m1 = lo + (hi - lo) / 3.0;
      const double m2 = hi - (hi - lo) / 3.0;
      if (c.at(m1) < c.at(m2)) {
        lo = m1;
      } else {
        hi = m2;
      }
    }
    // The ends straddle the apex; at a vertical edge only one is on top.
    const double apex = c.at(lo) >= c.at(hi) ? lo : hi;
    apexes.emplace_back(apex, c.at(apex));
  }
  double peak = *std::max_element(mu.begin(), mu.end());
  for (const auto& [ax, amu] : apexes) peak = std::max(peak, amu);
  if (peak < 1e-12) return midpoint;
  const double floor = peak - 1e-9;
  const auto crossing = [&](double in, double out) {
    for (int k = 0; k < 64; ++k) {
      const double mid = 0.5 * (in + out);
      (c.at(mid) >= floor ? in : out) = mid;
    }
    return in;
  };
  double length = 0.0;
  double moment = 0.0;
  double points = 0.0;
  double point_sum = 0.0;
  double smallest = x.back();
  double largest = x.front();
  for (const auto& [ax, amu] : apexes) {
    if (amu < floor) continue;
    smallest = std::min(smallest, ax);
    largest = std::max(largest, ax);
    points += 1.0;
    point_sum += ax;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (mu[i] < floor) continue;
    std::size_t j = i;
    while (j + 1 < x.size() && mu[j + 1] >= floor) ++j;
    if (j == i) continue;  // an apex, refined above
    const double a = i == 0 ? x[i] : crossing(x[i], x[i - 1]);
    const double b = j + 1 == x.size() ? x[j] : crossing(x[j], x[j + 1]);
    smallest = std::min(smallest, a);
    largest = std::max(largest, b);
    length += b - a;
    moment += 0.5 * (a + b) * (b - a);
    i = j;
  }
  if (method == Defuzzifier::SmallestOfMax) return smallest;
  if (method == Defuzzifier::LargestOfMax) return largest;
  return length > 0.0 ? moment / length : point_sum / points;
}

/// Centroid and bisector match the reference to 1e-6; the max family to
/// one reference sample step (the sampled set is the grid points inside
/// the exact one).
void expectMatchesReference(Defuzzifier method, double exact,
                            const SampledCurve& ref, const std::string& what) {
  const bool area_based =
      method == Defuzzifier::Centroid || method == Defuzzifier::Bisector;
  EXPECT_NEAR(exact, referenceDefuzzify(method, ref),
              area_based ? 1e-6 : ref.step)
      << toString(method) << " " << what;
}

/// Per-output-term activation of one traced inference: the aggregation of
/// the strengths of the rules that conclude in each term, in rule order.
std::vector<double> termActivation(const MamdaniEngine& engine,
                                   const InferenceTrace& trace) {
  std::vector<double> activation(engine.output().termCount(), 0.0);
  for (const RuleActivation& a : trace.activations) {
    const std::size_t t = engine.rules().rule(a.rule_index).consequent;
    activation[t] = apply(engine.config().aggregation, activation[t],
                          a.firing_strength);
  }
  return activation;
}

/// (FLC1?, conjunction, implication, aggregation).
using ExactConfig = std::tuple<bool, TNorm, TNorm, SNorm>;

/// Every implication and aggregation, with the conjunction following the
/// implication (so `ops=prod` runs), plus `ops=luk`: Lukasiewicz
/// conjunction under min/max.
std::vector<ExactConfig> exactConfigs() {
  std::vector<ExactConfig> configs;
  for (const bool flc1 : {true, false}) {
    for (const TNorm impl : kImplications) {
      for (const SNorm agg : kAggregations) {
        configs.emplace_back(flc1, impl, impl, agg);
      }
    }
    configs.emplace_back(flc1, TNorm::BoundedDifference, TNorm::Minimum,
                         SNorm::Maximum);
  }
  return configs;
}

class ExactAgainstSampled : public ::testing::TestWithParam<ExactConfig> {};

/// Random inputs fire random rule subsets of the deployed controllers;
/// every defuzzifier's exact answer matches fine sampling.
TEST_P(ExactAgainstSampled, RandomFiringsMatchFineSampling) {
  const auto [flc1, conjunction, implication, aggregation] = GetParam();
  std::vector<MamdaniEngine> engines;
  for (const Defuzzifier d : kAllDefuzzifiers) {
    EngineConfig cfg;
    cfg.conjunction = conjunction;
    cfg.implication = implication;
    cfg.aggregation = aggregation;
    cfg.defuzzifier = d;
    engines.push_back(flc1 ? core::buildFlc1(cfg) : core::buildFlc2(cfg));
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
        sampleCurve(engine.output(),
                    termActivation(engine, engine.inferTraced(in)),
                    implication, aggregation);
    for (std::size_t d = 0; d < kAllDefuzzifiers.size(); ++d) {
      expectMatchesReference(kAllDefuzzifiers[d], engines[d].infer(in), ref,
                             "input " + std::to_string(n));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Flc1Flc2AllOperators, ExactAgainstSampled,
    ::testing::ValuesIn(exactConfigs()),
    [](const ::testing::TestParamInfo<ExactConfig>& info) {
      return std::string{std::get<0>(info.param) ? "Flc1_" : "Flc2_"} +
             std::string{toString(std::get<1>(info.param))} + "_" +
             std::string{toString(std::get<2>(info.param))} + "_" +
             std::string{toString(std::get<3>(info.param))};
    });

/// A random piecewise-linear output variable: triangles and trapezoids
/// with zero-width (vertical) sides, supports running past the universe,
/// random activations, under every implication and aggregation. Interior
/// vertical edges sit midway between reference samples: that is the one
/// place where the trapezoid rule integrates a jump exactly, so the
/// reference stays within 1e-6. Some terms overlap three deep, so
/// probabilistic OR runs pieces of degree 3.
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

  std::size_t deepest = 0;  // most active terms alive at one x
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
    for (double x = u.lo; x <= u.hi; x += 1.0 / 1024.0) {
      std::size_t alive = 0;
      for (std::size_t t = 0; t < out.termCount(); ++t) {
        if (activation[t] > 0.0 && out.term(t).degree(x) > 0.0) ++alive;
      }
      deepest = std::max(deepest, alive);
    }

    PiecewiseEnvelope envelope;
    for (const TNorm impl : kImplications) {
      for (const SNorm agg : kAggregations) {
        const SampledCurve ref = sampleCurve(out, activation, impl, agg);
        for (const Defuzzifier d : kAllDefuzzifiers) {
          envelope.clear();
          for (std::size_t t = 0; t < out.termCount(); ++t) {
            if (activation[t] <= 0.0) continue;
            envelope.add(impl, out.term(t).mf().vertices(), activation[t]);
          }
          expectMatchesReference(
              d, envelope.defuzzify(agg, d, u), ref,
              "trial " + std::to_string(trial) + " " +
                  std::string{toString(impl)} + "/" +
                  std::string{toString(agg)});
        }
      }
    }
  }
  EXPECT_GE(deepest, 3u);
}

}  // namespace
}  // namespace facs::fuzzy
