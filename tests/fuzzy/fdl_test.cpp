#include "fuzzy/fdl.hpp"

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <sstream>
#include <string>

namespace facs::fuzzy {
namespace {

constexpr const char* kTipper = R"(
# A small controller in FDL.
engine tipper
conjunction min
implication min
aggregation max
defuzzifier centroid

input service 0 10
  term poor tri 0 0 5
  term good tri 5 5 5
  term great tri 10 5 0

input food 0 10
  term bad trap 0 2 0 4
  term tasty trap 8 10 4 0

output tip 0 30
  term low tri 5 5 5
  term medium tri 15 5 5
  term high tri 25 5 5

rule poor * => low
rule good * => medium
rule great bad => medium
rule great tasty => high weight 0.9
)";

/// The text of a file under tests/data.
std::string readData(const std::string& file) {
  std::ifstream in{std::string{FACS_TEST_DATA_DIR} + "/" + file};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Fdl, ParsesCompleteEngine) {
  const MamdaniEngine e = parseFdl(kTipper);
  EXPECT_EQ(e.name(), "tipper");
  EXPECT_EQ(e.inputCount(), 2u);
  EXPECT_EQ(e.input(0).name(), "service");
  EXPECT_EQ(e.input(1).termCount(), 2u);
  EXPECT_EQ(e.output().name(), "tip");
  EXPECT_EQ(e.rules().size(), 4u);
  EXPECT_DOUBLE_EQ(e.rules().rule(3).weight, 0.9);
  EXPECT_EQ(e.rules().rule(0).antecedent[1], kAnyTerm);
}

TEST(Fdl, ParsedEngineInfers) {
  const MamdaniEngine e = parseFdl(kTipper);
  const std::array<double, 2> in{0.0, 5.0};
  EXPECT_NEAR(e.infer(in), 5.0, 0.2);
}

TEST(Fdl, ParsesFromStream) {
  std::istringstream in{kTipper};
  const MamdaniEngine e = parseFdl(in);
  EXPECT_EQ(e.name(), "tipper");
}

TEST(Fdl, RoundTripPreservesBehaviour) {
  const MamdaniEngine original = parseFdl(kTipper);
  const std::string serialized = toFdl(original);
  const MamdaniEngine reparsed = parseFdl(serialized);

  for (double s = 0.0; s <= 10.0; s += 0.5) {
    for (double f = 0.0; f <= 10.0; f += 1.0) {
      const std::array<double, 2> in{s, f};
      EXPECT_EQ(original.infer(in), reparsed.infer(in))
          << "s=" << s << " f=" << f;
    }
  }

  // Parameters that need all their digits: written with fewer, the
  // reparsed universes, terms and rule weight move the outputs. The file
  // is in toFdl()'s own layout, so printing it must reproduce it.
  const std::string text = readData("fdl-precise.fdl");
  const MamdaniEngine precise = parseFdl(text);
  EXPECT_EQ(toFdl(precise), text);
  const MamdaniEngine precise_again = parseFdl(toFdl(precise));
  EXPECT_EQ(precise_again.rules().rule(0).weight, 0.333333333333);
  for (int i = 0; i <= 200; ++i) {
    const std::array<double, 1> in{1.23456789 * i / 200.0};
    EXPECT_EQ(precise.infer(in), precise_again.infer(in)) << "x=" << in[0];
  }

  // Subnormal numbers are legal parameters (a rule weight in (0, 1], a
  // non-negative width) and toFdl() prints them exactly: they read back.
  const std::string subnormal = R"(engine subnormal
conjunction min
implication min
aggregation max
defuzzifier centroid
input x 0 1
  term lo tri 0 5e-324 1
  term hi tri 1 1 2.2250738585072e-310
output y 0 1
  term a tri 0 0 1
  term b tri 1 1 0
rule lo => a weight 5e-324
rule hi => b
)";
  const MamdaniEngine tiny = parseFdl(subnormal);
  EXPECT_EQ(toFdl(tiny), subnormal);
  EXPECT_EQ(tiny.rules().rule(0).weight, 4.9406564584124654e-324);
  const auto& lo = dynamic_cast<const Triangular&>(tiny.input(0).term(0).mf());
  EXPECT_EQ(lo.leftWidth(), 4.9406564584124654e-324);
  EXPECT_EQ(toFdl(parseFdl(toFdl(tiny))), subnormal);
}

TEST(Fdl, OperatorKeywordsParse) {
  const MamdaniEngine e = parseFdl(R"(
engine ops
conjunction prod
implication lukasiewicz
aggregation probor
defuzzifier mom
input x 0 1
  term lo tri 0 0 1
output y 0 1
  term lo tri 0 0 1
rule lo => lo
)");
  EXPECT_EQ(e.config().conjunction, TNorm::AlgebraicProduct);
  EXPECT_EQ(e.config().implication, TNorm::BoundedDifference);
  EXPECT_EQ(e.config().aggregation, SNorm::AlgebraicSum);
  EXPECT_EQ(e.config().defuzzifier, Defuzzifier::MeanOfMax);
}

struct BadDoc {
  const char* name;
  const char* text;
  int expected_line;
};

class FdlErrors : public ::testing::TestWithParam<BadDoc> {};

TEST_P(FdlErrors, ReportsLineNumber) {
  try {
    (void)parseFdl(GetParam().text);
    FAIL() << "expected FdlError for " << GetParam().name;
  } catch (const FdlError& e) {
    EXPECT_EQ(e.line(), GetParam().expected_line) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, FdlErrors,
    ::testing::Values(
        BadDoc{"unknown_keyword", "bogus x\n", 1},
        BadDoc{"term_before_variable", "engine e\nterm a tri 0 1 1\n", 2},
        BadDoc{"bad_number", "engine e\ninput x 0 ten\n", 2},
        BadDoc{"bad_shape", "engine e\ninput x 0 1\nterm a blob 1\n", 3},
        BadDoc{"tri_arity", "engine e\ninput x 0 1\nterm a tri 1\n", 3},
        BadDoc{"rule_missing_arrow",
               "engine e\ninput x 0 1\nterm a tri 0 0 1\noutput y 0 1\nterm "
               "b tri 0 0 1\nrule a b\n",
               6},
        BadDoc{"unknown_tnorm", "conjunction nope\n", 1},
        BadDoc{"unknown_defuzz", "defuzzifier nope\n", 1},
        BadDoc{"nan_universe", "engine e\ninput x nan 1\n", 2},
        BadDoc{"nan_term_parameter",
               "engine e\ninput x 0 1\nterm a tri nan 0 1\n", 3},
        BadDoc{"inf_rule_weight",
               "engine e\ninput x 0 1\nterm a tri 0 0 1\noutput y 0 1\nterm "
               "b tri 0 0 1\nrule a => b weight inf\n",
               6},
        BadDoc{"resolution_is_unknown", "engine e\nresolution 1001\n", 2},
        BadDoc{"underflowing_number", "engine e\ninput x 0 1e-400\n", 2},
        BadDoc{"gauss_term", "engine e\ninput x 0 1\nterm a gauss 0.5 0.1\n",
               3},
        BadDoc{"conflicting_rules",
               "engine e\ninput x 0 1\nterm lo tri 0 0 1\noutput y 0 1\n"
               "term a tri 0 0 1\nterm b tri 1 1 0\nrule lo => a\n"
               "rule lo => b\n",
               8},
        BadDoc{"variable_without_terms",
               "engine e\ninput x 0 1\ninput z 0 1\nterm lo tri 0 0 1\n"
               "output y 0 1\nterm a tri 0 0 1\nrule * lo => a\n",
               2}),
    [](const auto& param_info) { return std::string{param_info.param.name}; });

TEST(Fdl, MissingEngineOrOutputFails) {
  EXPECT_THROW((void)parseFdl("input x 0 1\nterm a tri 0 0 1\n"), FdlError);
  EXPECT_THROW((void)parseFdl("engine e\ninput x 0 1\nterm a tri 0 0 1\n"),
               FdlError);
}

TEST(Fdl, RuleWithUnknownTermFailsAtBuild) {
  EXPECT_THROW((void)parseFdl(R"(
engine e
input x 0 1
  term lo tri 0 0 1
output y 0 1
  term lo tri 0 0 1
rule nope => lo
)"),
               FdlError);
}

/// A malformed file under tests/data (the CI smoke runs `facs_fdl check`
/// on the same files) and the line its error must name.
struct BadFile {
  const char* name;
  const char* file;
  int expected_line;
};

class FdlFileErrors : public ::testing::TestWithParam<BadFile> {};

TEST_P(FdlFileErrors, ReportsLineNumber) {
  std::ifstream in{std::string{FACS_TEST_DATA_DIR} + "/" + GetParam().file};
  ASSERT_TRUE(in) << GetParam().file;
  try {
    (void)parseFdl(in);
    FAIL() << "expected FdlError for " << GetParam().file;
  } catch (const FdlError& e) {
    EXPECT_EQ(e.line(), GetParam().expected_line) << e.what();
  }
}

// A non-finite universe used to parse and then infer NaN outputs; rule
// errors, raised when the engine is built after the whole document is
// read, named line 1; smooth shapes are not part of the language.
INSTANTIATE_TEST_SUITE_P(
    All, FdlFileErrors,
    ::testing::Values(
        BadFile{"nonfinite_universe", "fdl-nonfinite-universe.fdl", 6},
        BadFile{"unknown_rule_term", "fdl-unknown-rule-term.fdl", 10},
        BadFile{"gauss_term", "fdl-gauss-term.fdl", 5}),
    [](const auto& param_info) { return std::string{param_info.param.name}; });

TEST(Fdl, CommentsAndBlankLinesIgnored) {
  const MamdaniEngine e = parseFdl(
      "# header\n\nengine e # trailing comment\ninput x 0 1\nterm lo tri 0 0 "
      "1\noutput y 0 1\nterm lo tri 0 0 1\n\nrule lo => lo\n");
  EXPECT_EQ(e.rules().size(), 1u);
}

}  // namespace
}  // namespace facs::fuzzy
