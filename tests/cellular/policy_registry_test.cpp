#include "cellular/policy_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "cellular/network.hpp"
#include "scc/shadow_cluster.hpp"
#include "sim/scenario_catalog.hpp"

namespace facs::cellular {
namespace {

TEST(PolicySpec, ParsesBareName) {
  const PolicySpec spec = PolicySpec::parse("facs");
  EXPECT_EQ(spec.name(), "facs");
  EXPECT_EQ(spec.positionalCount(), 0u);
}

TEST(PolicySpec, ParsesPositionalArgs) {
  const PolicySpec spec = PolicySpec::parse("threshold:38,30,20");
  EXPECT_EQ(spec.name(), "threshold");
  ASSERT_EQ(spec.positionalCount(), 3u);
  EXPECT_DOUBLE_EQ(spec.numberAt(0, -1.0), 38.0);
  EXPECT_DOUBLE_EQ(spec.numberAt(1, -1.0), 30.0);
  EXPECT_DOUBLE_EQ(spec.numberAt(2, -1.0), 20.0);
  EXPECT_DOUBLE_EQ(spec.numberAt(3, -1.0), -1.0);  // fallback
}

TEST(PolicySpec, ParsesNamedArgs) {
  const PolicySpec spec = PolicySpec::parse("facs:tau=0.25,ops=prod");
  EXPECT_TRUE(spec.hasKey("tau"));
  EXPECT_DOUBLE_EQ(spec.numberFor("tau", 0.0), 0.25);
  EXPECT_EQ(spec.keywordFor("ops", "minmax"), "prod");
  EXPECT_EQ(spec.keywordFor("missing", "fallback"), "fallback");
}

TEST(PolicySpec, MixedPositionalThenNamed) {
  const PolicySpec spec = PolicySpec::parse("scc:0.85,intervals=4");
  EXPECT_DOUBLE_EQ(spec.numberAt(0, 0.0), 0.85);
  EXPECT_DOUBLE_EQ(spec.numberFor("intervals", 0.0), 4.0);
}

TEST(PolicySpec, MalformedSpecsThrow) {
  EXPECT_THROW((void)PolicySpec::parse(""), PolicySpecError);
  EXPECT_THROW((void)PolicySpec::parse(":8"), PolicySpecError);
  EXPECT_THROW((void)PolicySpec::parse("guard:"), PolicySpecError);
  EXPECT_THROW((void)PolicySpec::parse("guard:8,,9"), PolicySpecError);
  EXPECT_THROW((void)PolicySpec::parse("facs:tau="), PolicySpecError);
  EXPECT_THROW((void)PolicySpec::parse("facs:=1"), PolicySpecError);
  EXPECT_THROW((void)PolicySpec::parse("facs:tau=1,tau=2"), PolicySpecError);
  // Positional after named is ambiguous.
  EXPECT_THROW((void)PolicySpec::parse("scc:theta=1,4"), PolicySpecError);
}

TEST(PolicyRegistry, BuiltinPoliciesAreRegistered) {
  const PolicyRegistry& reg = PolicyRegistry::global();
  const std::vector<std::string> names = reg.names();
  for (const char* expected :
       {"cs", "facs", "guard", "rsv", "scc", "sir", "threshold"}) {
    EXPECT_TRUE(reg.contains(expected)) << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PolicyRegistry, EveryEntryHasDocs) {
  const PolicyRegistry& reg = PolicyRegistry::global();
  for (const std::string& name : reg.names()) {
    const PolicyInfo& info = reg.info(name);
    EXPECT_FALSE(info.summary.empty()) << name;
    EXPECT_FALSE(info.params_doc.empty()) << name;
    EXPECT_NE(PolicyRegistry::global().describeAll().find(name),
              std::string::npos)
        << name;
  }
}

/// Round trip: every registered name parses, constructs on the paper's
/// single-cell network and produces a sane decision.
TEST(PolicyRegistry, RoundTripEveryPolicyOnPaperCell) {
  const sim::SimulationConfig paper =
      sim::ScenarioCatalog::builtins().at("paper-single-cell").config;
  const HexNetwork net{paper.rings, paper.cell_radius_km, paper.capacity_bu};

  CallRequest request;
  request.call = 1;
  request.service = ServiceClass::Voice;
  request.demand_bu = 5;
  request.snapshot = {60.0, 0.0, 3.0, {3.0, 0.0}};
  request.target_cell = 0;

  for (const std::string& name : PolicyRegistry::global().names()) {
    const std::unique_ptr<AdmissionController> controller =
        PolicyRegistry::global().makeController(name, net);
    ASSERT_NE(controller, nullptr) << name;
    EXPECT_FALSE(controller->name().empty()) << name;

    const AdmissionDecision d =
        controller->decide(request, {net.station(0), 0.0});
    EXPECT_GE(d.score, -1.0) << name;
    EXPECT_LE(d.score, 1.0) << name;
    EXPECT_TRUE(d.rationale.empty()) << name << ": hot path must not explain";
    if (d.accept) {
      EXPECT_EQ(d.reason, ReasonCode::Admitted) << name;
    } else {
      EXPECT_NE(d.reason, ReasonCode::Admitted) << name;
    }

    // Explain mode fills the rationale.
    const AdmissionDecision verbose =
        controller->decide(request, {net.station(0), 0.0, true});
    EXPECT_FALSE(verbose.rationale.empty()) << name;
    EXPECT_EQ(verbose.accept, d.accept) << name;
  }
}

TEST(PolicyRegistry, ParameterizedSpecsConstruct) {
  const HexNetwork net{1};
  for (const char* spec :
       {"guard:12", "guard:g=4", "threshold:40,40,40", "facs:0.25",
        "facs:tau=0.25,handoff=0.4", "facs:ops=prod", "facs:ops=luk",
        "facs:defuzz=mom", "scc:0.85", "scc:theta=0.9,intervals=2",
        "sir:-3,1,5", "rsv:0.75", "rsv:frac=0.1,minspeed=20"}) {
    EXPECT_NE(PolicyRegistry::global().makeController(spec, net), nullptr)
        << spec;
  }
}

TEST(PolicyRegistry, IntegerParametersRejectFractions) {
  const PolicyRegistry& reg = PolicyRegistry::global();
  EXPECT_THROW((void)reg.makeFactory("guard:8.5"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("guard:g=8.5"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("threshold:38.5,30,20"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("scc:intervals=1.7"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("scc:radius=1.7"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("facs:res=100.9"), PolicySpecError);
}

TEST(PolicyRegistry, NumericArgumentsRejectNonFiniteValues) {
  // std::stod parses "nan" and "inf"; a spec must still reject them, and an
  // integer argument must reject a finite value outside int's range.
  // Every registered policy names its numeric arguments here ("#" marks
  // the value), so a new policy cannot skip the check.
  const std::map<std::string, std::vector<std::string>> numeric_args{
      {"cs", {}},  // takes no arguments at all
      {"facs", {"facs:#", "facs:tau=#", "facs:handoff=#"}},
      {"guard", {"guard:#", "guard:g=#"}},
      {"rsv", {"rsv:#", "rsv:frac=#", "rsv:minspeed=#"}},
      {"scc",
       {"scc:#", "scc:sigma=#", "scc:growth=#", "scc:interval-s=#",
        "scc:holding=#", "scc:intervals=#", "scc:rebuild=#", "scc:reach=#"}},
      {"sir", {"sir:#,1,5", "sir:-3,#,5", "sir:-3,1,#"}},
      {"threshold", {"threshold:#,30,20", "threshold:38,30,#"}},
  };
  const PolicyRegistry& reg = PolicyRegistry::global();
  for (const std::string& name : reg.names()) {
    const auto entry = numeric_args.find(name);
    ASSERT_NE(entry, numeric_args.end()) << name << " has no entry here";
    for (const std::string& spec : entry->second) {
      const std::size_t hole = spec.find('#');
      for (const char* bad : {"nan", "inf", "-inf"}) {
        const std::string text =
            spec.substr(0, hole) + bad + spec.substr(hole + 1);
        EXPECT_THROW((void)reg.makeFactory(text), PolicySpecError) << text;
      }
    }
  }
  for (const char* text :
       {"guard:1e300", "threshold:-1e300,30,20", "scc:rebuild=1e300"}) {
    EXPECT_THROW((void)reg.makeFactory(text), PolicySpecError) << text;
  }
  const PolicySpec spec = PolicySpec::parse("x:1e300,n=2147483648");
  EXPECT_THROW((void)spec.intAt(0, 0), PolicySpecError);
  EXPECT_THROW((void)spec.intFor("n", 0), PolicySpecError);
  EXPECT_EQ(PolicySpec::parse("x:2147483647").intAt(0, 0), 2147483647);
}

TEST(PolicyRegistry, SirThresholdsAreAllOrNothing) {
  EXPECT_THROW((void)PolicyRegistry::global().makeFactory("sir:5"),
               PolicySpecError);
  EXPECT_THROW((void)PolicyRegistry::global().makeFactory("sir:5,1"),
               PolicySpecError);
  const HexNetwork net{0};
  EXPECT_NE(PolicyRegistry::global().makeController("sir:5,5,5", net),
            nullptr);
}

TEST(PolicyRegistry, BadSpecsThrow) {
  const PolicyRegistry& reg = PolicyRegistry::global();
  EXPECT_THROW((void)reg.makeFactory("nope"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("guard:abc"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("guard:-1"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("guard:1,2"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("threshold:1,2"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("threshold:-5,1,1"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("facs:tua=0.2"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("facs:priority=1"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("facs:ops=max"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("facs:defuzz=median"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("facs:res=1"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("scc:theta=0"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("scc:intervals=0"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("rsv:1.5"), PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("rsv:minspeed=-1"), PolicySpecError);
  EXPECT_THROW((void)reg.info("nope"), PolicySpecError);
}

TEST(PolicyRegistry, SccIntervalsBoundedAndHorizonFinite) {
  // The demand cache is cells x intervals doubles: the count is capped at
  // kMaxIntervals at parse time, before anything is allocated, and a
  // horizon past kMaxHorizonS (or one that overflows to inf) is refused
  // rather than run.
  const PolicyRegistry& reg = PolicyRegistry::global();
  const HexNetwork net{0};
  const std::string at_bound =
      "scc:intervals=" + std::to_string(scc::kMaxIntervals);
  EXPECT_NE(reg.makeController(at_bound, net), nullptr);
  EXPECT_THROW((void)reg.makeFactory("scc:intervals=" +
                                     std::to_string(scc::kMaxIntervals + 1)),
               PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("scc:intervals=2000000000"),
               PolicySpecError);
  EXPECT_THROW((void)reg.makeFactory("scc:interval-s=1e308"), PolicySpecError);
  // A finite horizon past kMaxHorizonS is refused at parse time too, and
  // the error names the keys that set it.
  const auto horizon = [](int intervals, double interval_s) {
    return "scc:intervals=" + std::to_string(intervals) +
           ",interval-s=" + std::to_string(interval_s);
  };
  EXPECT_NO_THROW((void)reg.makeFactory(horizon(1, scc::kMaxHorizonS)));
  EXPECT_NO_THROW((void)reg.makeFactory(horizon(4, scc::kMaxHorizonS / 4)));
  try {
    (void)reg.makeFactory(horizon(1, scc::kMaxHorizonS + 1));
    ADD_FAILURE() << "a horizon past kMaxHorizonS was accepted";
  } catch (const PolicySpecError& e) {
    EXPECT_NE(std::string{e.what()}.find("interval-s"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      (void)reg.makeFactory("scc:intervals=1,interval-s=1e308"),
      PolicySpecError);
}

TEST(PolicyRegistry, DuplicateRegistrationThrows) {
  PolicyRegistry local;
  local.add({"x", "s", "x"}, [](const PolicySpec&) -> ControllerFactory {
    return nullptr;
  });
  EXPECT_THROW(local.add({"x", "s", "x"},
                         [](const PolicySpec&) -> ControllerFactory {
                           return nullptr;
                         }),
               std::logic_error);
}

}  // namespace
}  // namespace facs::cellular
