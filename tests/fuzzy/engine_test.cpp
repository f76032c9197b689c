#include "fuzzy/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

namespace facs::fuzzy {
namespace {

/// A tiny two-input "tipper"-style controller used across engine tests,
/// sealed and ready to infer.
MamdaniEngine makeTipper(EngineConfig config = {}) {
  MamdaniEngine e{"tipper", config};

  LinguisticVariable service{"service", Interval{0.0, 10.0}};
  service.addTerm("poor", makeTriangle(0.0, 0.0, 5.0));
  service.addTerm("good", makeTriangle(5.0, 5.0, 5.0));
  service.addTerm("great", makeTriangle(10.0, 5.0, 0.0));

  LinguisticVariable food{"food", Interval{0.0, 10.0}};
  food.addTerm("bad", makeTrapezoid(0.0, 2.0, 0.0, 4.0));
  food.addTerm("tasty", makeTrapezoid(8.0, 10.0, 4.0, 0.0));

  LinguisticVariable tip{"tip", Interval{0.0, 30.0}};
  tip.addTerm("low", makeTriangle(5.0, 5.0, 5.0));
  tip.addTerm("medium", makeTriangle(15.0, 5.0, 5.0));
  tip.addTerm("high", makeTriangle(25.0, 5.0, 5.0));

  e.addInput(std::move(service));
  e.addInput(std::move(food));
  e.setOutput(std::move(tip));

  e.addRule({"poor", "*"}, "low");
  e.addRule({"good", "*"}, "medium");
  e.addRule({"great", "bad"}, "medium");
  e.addRule({"great", "tasty"}, "high");
  e.seal();
  return e;
}

TEST(Engine, ConstructionValidation) {
  EXPECT_THROW(MamdaniEngine("", EngineConfig{}), std::invalid_argument);
  EXPECT_NO_THROW(MamdaniEngine("x", EngineConfig{}));
}

TEST(Engine, CheckValidCatchesMissingPieces) {
  MamdaniEngine empty{"e"};
  EXPECT_THROW(empty.checkValid(), std::logic_error);  // no inputs

  MamdaniEngine no_output{"e"};
  LinguisticVariable v{"v", Interval{0.0, 1.0}};
  v.addTerm("t", makeTriangle(0.5, 0.5, 0.5));
  no_output.addInput(v);
  EXPECT_THROW(no_output.checkValid(), std::logic_error);  // no output

  MamdaniEngine no_rules{"e"};
  no_rules.addInput(v);
  no_rules.setOutput(v);
  EXPECT_THROW(no_rules.checkValid(), std::logic_error);  // empty rule base
}

TEST(Engine, CheckValidCatchesConflicts) {
  MamdaniEngine e{"e"};
  LinguisticVariable v{"v", Interval{0.0, 1.0}};
  v.addTerm("lo", makeTriangle(0.0, 0.0, 1.0));
  v.addTerm("hi", makeTriangle(1.0, 1.0, 0.0));
  e.addInput(v);
  e.setOutput(v);
  e.addRule({"lo"}, "lo");
  e.addRule({"lo"}, "hi");
  EXPECT_THROW(e.checkValid(), std::logic_error);
}

TEST(Engine, InferArityMismatchThrows) {
  const MamdaniEngine e = makeTipper();
  const std::array<double, 1> one{5.0};
  EXPECT_THROW((void)e.infer(one), std::invalid_argument);
}

TEST(Engine, SingleDominantRuleCentersOnConsequent) {
  const MamdaniEngine e = makeTipper();
  // service=0 fires only "poor -> low" at full strength.
  const std::array<double, 2> in{0.0, 5.0};
  EXPECT_NEAR(e.infer(in), 5.0, 0.2);
}

TEST(Engine, GreatServiceTastyFoodGivesHighTip) {
  const MamdaniEngine e = makeTipper();
  const std::array<double, 2> in{10.0, 10.0};
  EXPECT_NEAR(e.infer(in), 25.0, 0.2);
}

TEST(Engine, InterpolatesBetweenRules) {
  const MamdaniEngine e = makeTipper();
  // service=7.5: good=0.5, great=0.5; food=10 -> medium and high both fire.
  const std::array<double, 2> in{7.5, 10.0};
  const double out = e.infer(in);
  EXPECT_GT(out, 15.0);
  EXPECT_LT(out, 25.0);
}

TEST(Engine, MonotoneInServiceQuality) {
  const MamdaniEngine e = makeTipper();
  double prev = -1.0;
  for (double s = 0.0; s <= 10.0; s += 0.5) {
    const std::array<double, 2> in{s, 10.0};
    const double out = e.infer(in);
    EXPECT_GE(out + 1e-9, prev) << "tip dropped at service=" << s;
    prev = out;
  }
}

TEST(Engine, ClampsInputsToUniverse) {
  const MamdaniEngine e = makeTipper();
  const std::array<double, 2> wild{42.0, -3.0};
  const std::array<double, 2> edge{10.0, 0.0};
  EXPECT_DOUBLE_EQ(e.infer(wild), e.infer(edge));
}

TEST(Engine, TraceReportsActivationsAndWinner) {
  const MamdaniEngine e = makeTipper();
  const std::array<double, 2> in{7.5, 10.0};
  const InferenceTrace trace = e.inferTraced(in);

  ASSERT_EQ(trace.fuzzified.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.fuzzified[0][1], 0.5);  // good
  EXPECT_DOUBLE_EQ(trace.fuzzified[0][2], 0.5);  // great

  // Rules 1 (good->medium) and 3 (great&tasty->high) fire.
  ASSERT_EQ(trace.activations.size(), 2u);
  EXPECT_EQ(trace.activations[0].rule_index, 1u);
  EXPECT_DOUBLE_EQ(trace.activations[0].firing_strength, 0.5);
  EXPECT_EQ(trace.activations[1].rule_index, 3u);
  EXPECT_DOUBLE_EQ(trace.activations[1].firing_strength, 0.5);

  // Medium and high clipped at the same level are mirror images about 20,
  // so the exact centroid is 20 itself. Both terms reach zero there, as
  // does low, so winningTerm()'s tie rule names the first term.
  EXPECT_DOUBLE_EQ(trace.crisp_output, 20.0);
  EXPECT_EQ(e.output().term(trace.winning_output_term).name(), "low");
}

TEST(Engine, RuleWeightScalesInfluence) {
  // Re-add the high rule with a tiny weight via a fresh engine.
  MamdaniEngine e{"tipper2"};
  const MamdaniEngine base = makeTipper();
  for (const auto& v : base.inputs()) e.addInput(v);
  e.setOutput(base.output());
  e.addRule({"poor", "*"}, "low");
  e.addRule({"good", "*"}, "medium");
  e.addRule({"great", "bad"}, "medium");
  e.addRule({"great", "tasty"}, "high", 0.1);
  e.seal();

  const std::array<double, 2> in{7.5, 10.0};
  EXPECT_LT(e.infer(in), base.infer(in));
}

TEST(Engine, ProductOperatorsDifferButAgreeOnDominantRule) {
  EngineConfig prod;
  prod.conjunction = TNorm::AlgebraicProduct;
  prod.implication = TNorm::AlgebraicProduct;
  prod.aggregation = SNorm::AlgebraicSum;
  const MamdaniEngine scaled = makeTipper(prod);
  const MamdaniEngine clipped = makeTipper();

  const std::array<double, 2> dominant{0.0, 5.0};
  EXPECT_NEAR(scaled.infer(dominant), clipped.infer(dominant), 0.5);

  const std::array<double, 2> mixed{6.0, 7.0};
  // Different operator families genuinely differ on mixed activations.
  EXPECT_NE(scaled.infer(mixed), clipped.infer(mixed));
}

TEST(Engine, ConfigSwitchesDefuzzifier) {
  const std::array<double, 2> in{7.5, 10.0};
  const double centroid = makeTipper().infer(in);

  EngineConfig cfg;
  cfg.defuzzifier = Defuzzifier::LargestOfMax;
  const double lom = makeTipper(cfg).infer(in);
  EXPECT_GT(lom, centroid);  // LOM rides the rightmost maximizing plateau
}

TEST(Engine, OutputAlwaysWithinUniverse) {
  const MamdaniEngine e = makeTipper();
  for (double s = 0.0; s <= 10.0; s += 1.0) {
    for (double f = 0.0; f <= 10.0; f += 1.0) {
      const std::array<double, 2> in{s, f};
      const double out = e.infer(in);
      EXPECT_GE(out, 0.0);
      EXPECT_LE(out, 30.0);
    }
  }
}

TEST(Engine, SealValidatesOnceAndMutationUnseals) {
  MamdaniEngine e = makeTipper();
  EXPECT_TRUE(e.sealed());
  // Any structural mutation drops the seal.
  e.setOutput(e.output());
  EXPECT_FALSE(e.sealed());
  e.seal();
  EXPECT_TRUE(e.sealed());
  e.addRule({"poor", "bad"}, "low");
  EXPECT_FALSE(e.sealed());

  // Sealing an invalid engine reports the defect instead of caching it.
  MamdaniEngine empty{"e"};
  EXPECT_THROW(empty.seal(), std::logic_error);
  EXPECT_FALSE(empty.sealed());
}

TEST(Engine, UnsealedEngineRefusesToInfer) {
  MamdaniEngine e = makeTipper();
  e.setOutput(e.output());  // a mutation unseals
  const std::array<double, 2> in{7.5, 10.0};
  InferenceScratch scratch;
  // std::invalid_argument (an arity error) derives from std::logic_error,
  // so the message tells the two apart.
  const auto expectRefused = [&](const auto& call) {
    try {
      (void)call();
      ADD_FAILURE() << "an unsealed engine inferred";
    } catch (const std::logic_error& err) {
      EXPECT_EQ(std::string{err.what()},
                "engine 'tipper' is not sealed; call seal() before inference");
    }
  };
  expectRefused([&] { return e.infer(in); });
  expectRefused([&] { return e.infer(in, scratch); });
  expectRefused([&] { return e.inferTraced(in); });
  e.seal();
  EXPECT_EQ(e.infer(in), e.inferTraced(in).crisp_output);
}

TEST(Engine, ScratchInferenceIsBitIdenticalToTracedPath) {
  const MamdaniEngine e = makeTipper();
  InferenceScratch scratch;
  for (double s = 0.0; s <= 10.0; s += 0.5) {
    for (double f = 0.0; f <= 10.0; f += 0.5) {
      const std::array<double, 2> in{s, f};
      const double traced = e.inferTraced(in).crisp_output;
      // Exact equality on purpose: the scratch path must run the same
      // arithmetic in the same order as the traced one.
      EXPECT_EQ(e.infer(in), traced) << "s=" << s << " f=" << f;
      EXPECT_EQ(e.infer(in, scratch), traced) << "s=" << s << " f=" << f;
      // A warm (dirty) scratch must not leak state into the next call.
      EXPECT_EQ(e.infer(in, scratch), traced) << "s=" << s << " f=" << f;
    }
  }
}

TEST(Engine, OneScratchServesEnginesOfDifferentShape) {
  const MamdaniEngine tipper = makeTipper();
  MamdaniEngine single{"single"};
  LinguisticVariable v{"v", Interval{0.0, 1.0}};
  v.addTerm("lo", makeTriangle(0.0, 0.0, 1.0));
  v.addTerm("hi", makeTriangle(1.0, 1.0, 0.0));
  single.addInput(v);
  single.setOutput(v);
  single.addRule({"lo"}, "lo");
  single.addRule({"hi"}, "hi");
  single.seal();

  InferenceScratch scratch;
  const std::array<double, 2> two{9.0, 9.0};
  const std::array<double, 1> one{0.25};
  const double a = tipper.infer(two, scratch);
  const double b = single.infer(one, scratch);
  // Interleave the shapes: the scratch resizes per call, never bleeds.
  EXPECT_EQ(tipper.infer(two, scratch), a);
  EXPECT_EQ(single.infer(one, scratch), b);
}

}  // namespace
}  // namespace facs::fuzzy
