#include "core/facs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "cellular/network.hpp"
#include "cellular/policy_registry.hpp"

namespace facs::core {
namespace {

using cellular::AdmissionContext;
using cellular::BaseStation;
using cellular::CallRequest;
using cellular::ServiceClass;
using cellular::UserSnapshot;

UserSnapshot idealUser() {
  UserSnapshot u;
  u.speed_kmh = 100.0;
  u.angle_deg = 0.0;
  u.distance_km = 1.0;
  u.position = {1.0, 0.0};
  return u;
}

UserSnapshot erraticUser() {
  UserSnapshot u;
  u.speed_kmh = 4.0;
  u.angle_deg = 160.0;
  u.distance_km = 9.0;
  u.position = {9.0, 0.0};
  return u;
}

CallRequest makeRequest(const UserSnapshot& user, ServiceClass service,
                        bool handoff = false) {
  CallRequest r;
  r.call = 1;
  r.user = 1;
  r.service = service;
  r.demand_bu = cellular::profileFor(service).demand_bu;
  r.snapshot = user;
  r.target_cell = 0;
  r.is_handoff = handoff;
  return r;
}

TEST(SoftDecisionNames, ToString) {
  EXPECT_EQ(toString(SoftDecision::Reject), "reject");
  EXPECT_EQ(toString(SoftDecision::WeakReject), "weak-reject");
  EXPECT_EQ(toString(SoftDecision::NotRejectNotAccept),
            "not-reject-not-accept");
  EXPECT_EQ(toString(SoftDecision::WeakAccept), "weak-accept");
  EXPECT_EQ(toString(SoftDecision::Accept), "accept");
}

TEST(SoftDecisionNames, OutOfRangeValueIsNotAValidLookingDefault) {
  // A corrupted decision must not log as the neutral middle level.
  EXPECT_EQ(toString(static_cast<SoftDecision>(5)), "invalid");
  EXPECT_EQ(toString(static_cast<SoftDecision>(250)), "invalid");
}

TEST(FacsController, ClassifyMapsOntoFiveLevels) {
  const FacsController facs;
  EXPECT_EQ(facs.classify(-0.95), SoftDecision::Reject);
  EXPECT_EQ(facs.classify(-0.5), SoftDecision::WeakReject);
  EXPECT_EQ(facs.classify(0.0), SoftDecision::NotRejectNotAccept);
  EXPECT_EQ(facs.classify(0.5), SoftDecision::WeakAccept);
  EXPECT_EQ(facs.classify(0.95), SoftDecision::Accept);
}

TEST(FacsController, IdealUserOnEmptyCellIsAccepted) {
  const FacsController facs;
  const FacsEvaluation eval = facs.evaluate(idealUser(), 5.0, 0.0);
  EXPECT_GT(eval.cv, 0.8);
  EXPECT_GT(eval.ar, 0.5);
  EXPECT_TRUE(eval.accept);
  EXPECT_EQ(eval.soft, SoftDecision::Accept);
}

TEST(FacsController, ErraticUserOnFullCellIsRejected) {
  const FacsController facs;
  const FacsEvaluation eval = facs.evaluate(erraticUser(), 10.0, 40.0);
  EXPECT_LT(eval.cv, 0.3);
  EXPECT_FALSE(eval.accept);
}

TEST(FacsController, CascadePassesCvIntoFlc2) {
  const FacsController facs;
  const double cv_good = facs.predictCv(idealUser());
  const double cv_bad = facs.predictCv(erraticUser());
  EXPECT_GT(cv_good, cv_bad + 0.4);

  // At middling occupancy the better prediction translates into a better
  // admission score — the cascade is live.
  const FacsEvaluation good = facs.evaluate(idealUser(), 5.0, 20.0);
  const FacsEvaluation bad = facs.evaluate(erraticUser(), 5.0, 20.0);
  EXPECT_GT(good.ar, bad.ar);
}

TEST(FacsController, OccupancyTightensAdmission) {
  const FacsController facs;
  const FacsEvaluation empty = facs.evaluate(idealUser(), 10.0, 0.0);
  const FacsEvaluation mid = facs.evaluate(idealUser(), 10.0, 20.0);
  const FacsEvaluation full = facs.evaluate(idealUser(), 10.0, 40.0);
  EXPECT_GT(empty.ar, mid.ar - 1e-9);
  EXPECT_GT(mid.ar, full.ar);
  EXPECT_TRUE(empty.accept);
  EXPECT_FALSE(full.accept);  // G & Vi & F -> R
}

TEST(FacsController, ThresholdIsConfigurable) {
  FacsConfig strict;
  strict.accept_threshold = 0.6;
  const FacsController facs{strict};
  // Weak accept (~0.5) fails a 0.6 threshold.
  const FacsEvaluation eval = facs.evaluate(erraticUser(), 10.0, 0.0);
  EXPECT_EQ(eval.soft, SoftDecision::WeakAccept);
  EXPECT_FALSE(eval.accept);
}

TEST(FacsController, HandoffBiasPrioritizesOngoingCalls) {
  FacsConfig cfg;
  cfg.handoff_bias = 0.3;
  const FacsController facs{cfg};
  // A borderline case near ar ~ 0: neutral for new calls, accepted as
  // handoff because dropping is worse than blocking (Section 1).
  UserSnapshot u = idealUser();
  u.speed_kmh = 4.0;
  u.angle_deg = 0.0;
  u.distance_km = 9.0;  // Sl & St & F -> Cv3 -> middling
  const FacsEvaluation as_new = facs.evaluate(u, 5.0, 25.0, false);
  const FacsEvaluation as_handoff = facs.evaluate(u, 5.0, 25.0, true);
  EXPECT_EQ(as_new.ar, as_handoff.ar);  // same fuzzy output...
  EXPECT_TRUE(!as_new.accept || as_handoff.accept);  // ...easier admission
}

TEST(FacsController, DecideHonoursLedgerCapacity) {
  FacsController facs;
  BaseStation bs{0, 40};
  bs.allocate(99, 33, true);  // 7 BU free: fuzzy Cs=33 is not yet Full

  // Voice (5 BU) still fits; video (10 BU) does not, whatever FLC2 says.
  const AdmissionContext ctx{bs, 0.0};
  const auto voice =
      facs.decide(makeRequest(idealUser(), ServiceClass::Voice), ctx);
  const auto video =
      facs.decide(makeRequest(idealUser(), ServiceClass::Video), ctx);
  EXPECT_FALSE(video.accept);  // cannot fit 10 BU into 7
  // The fuzzy score is reported either way.
  EXPECT_GE(voice.score, -1.0);
  EXPECT_LE(voice.score, 1.0);
}

TEST(FacsController, DecideRationaleIsOptIn) {
  FacsController facs;
  BaseStation bs{0, 40};

  // Hot path (explain off): no rationale text, only the reason code.
  const AdmissionContext fast_ctx{bs, 0.0};
  const auto fast =
      facs.decide(makeRequest(idealUser(), ServiceClass::Text), fast_ctx);
  EXPECT_TRUE(fast.accept);
  EXPECT_EQ(fast.reason, cellular::ReasonCode::Admitted);
  EXPECT_TRUE(fast.rationale.empty());

  // Explain mode: rationale names both fuzzy stages.
  const AdmissionContext explain_ctx{bs, 0.0, /*explain=*/true};
  const auto d =
      facs.decide(makeRequest(idealUser(), ServiceClass::Text), explain_ctx);
  EXPECT_TRUE(d.accept);
  EXPECT_NE(d.rationale.find("cv="), std::string::npos);
  EXPECT_NE(d.rationale.find("ar="), std::string::npos);
  EXPECT_NE(d.rationale.find("soft="), std::string::npos);
}

TEST(FacsController, PrecomputeMatchesPredictCv) {
  const FacsController facs;
  for (const UserSnapshot& u : {idealUser(), erraticUser()}) {
    const cellular::PredictedCv p = facs.precompute(u);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.cv, facs.predictCv(u));  // exact: same inference
  }
}

TEST(FacsController, DecideConsumesPrecomputedCvBitIdentically) {
  FacsController facs;
  BaseStation bs{0, 40};
  bs.allocate(99, 20, true);

  for (const UserSnapshot& u : {idealUser(), erraticUser()}) {
    for (const bool handoff : {false, true}) {
      const CallRequest req = makeRequest(u, ServiceClass::Voice, handoff);
      const AdmissionContext inline_ctx{bs, 0.0};
      AdmissionContext precomputed_ctx{bs, 0.0};
      precomputed_ctx.predicted = facs.precompute(u);

      const auto a = facs.decide(req, inline_ctx);
      const auto b = facs.decide(req, precomputed_ctx);
      EXPECT_EQ(a.accept, b.accept);
      EXPECT_EQ(a.reason, b.reason);
      EXPECT_EQ(a.score, b.score);  // exact double equality on purpose
    }
  }
}

TEST(FacsController, StalePrecomputedCvIsHonoured) {
  // decide() trusts context.predicted verbatim — keeping it coherent with
  // the snapshot is the caller's contract (the simulator re-runs
  // precompute() whenever mobility changes a snapshot). A mismatched CV
  // must therefore change the score, proving the value is actually used.
  FacsController facs;
  BaseStation bs{0, 40};
  bs.allocate(99, 20, true);
  const CallRequest req = makeRequest(erraticUser(), ServiceClass::Voice);

  AdmissionContext stale_ctx{bs, 0.0};
  stale_ctx.predicted = facs.precompute(idealUser());  // wrong snapshot
  const AdmissionContext fresh_ctx{bs, 0.0};
  const auto stale = facs.decide(req, stale_ctx);
  const auto fresh = facs.decide(req, fresh_ctx);
  EXPECT_NE(stale.score, fresh.score);
  EXPECT_EQ(stale.score,
            facs.evaluate(facs.predictCv(idealUser()), 5.0, 20.0).ar);
}

TEST(FacsController, DecideMatchesEvaluateAcrossLedgerStates) {
  // decide() is evaluate() on (Cv, R, Cs) plus the capacity check. Walk a
  // spread of Cv, demand, occupancy and handoff combinations — ledger
  // states that differ per decision, as in a commit window.
  FacsController facs;
  for (int occupied : {0, 15, 30, 40}) {
    BaseStation bs{0, 40};
    if (occupied > 0) bs.allocate(99, occupied, true);
    for (double cv : {0.05, 0.35, 0.65, 0.95}) {
      CallRequest req = makeRequest(
          idealUser(), occupied < 20 ? ServiceClass::Video : ServiceClass::Voice,
          /*handoff=*/cv > 0.5);
      AdmissionContext ctx{bs, 0.0};
      ctx.predicted = {cv, true};
      const auto d = facs.decide(req, ctx);
      const FacsEvaluation solo =
          facs.evaluate(cv, req.demand_bu, occupied, req.is_handoff);
      EXPECT_EQ(d.score, solo.ar);  // bit-identical, not just close
      EXPECT_EQ(d.accept, solo.accept && bs.canFit(req.demand_bu));
    }
  }
}

TEST(FacsController, InterleavedControllersNeverShareScratchState) {
  // decide() infers through a per-thread InferenceScratch shared by every
  // controller on the thread. Two differently-configured controllers fed
  // the same inputs back to back must each keep their own answers.
  FacsConfig prod_cfg;
  prod_cfg.flc2.conjunction = fuzzy::TNorm::AlgebraicProduct;
  prod_cfg.flc2.implication = fuzzy::TNorm::AlgebraicProduct;
  prod_cfg.flc2.aggregation = fuzzy::SNorm::AlgebraicSum;
  FacsController minmax;
  FacsController prod{prod_cfg};

  BaseStation bs{0, 40};
  bs.allocate(1, 17, true);
  const AdmissionContext ctx{bs, 0.0};
  const CallRequest req = makeRequest(idealUser(), ServiceClass::Voice);

  const double minmax_score = minmax.decide(req, ctx).score;
  const double prod_score = prod.decide(req, ctx).score;
  ASSERT_NE(minmax_score, prod_score);  // the configs genuinely differ
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(minmax.decide(req, ctx).score, minmax_score);
    EXPECT_EQ(prod.decide(req, ctx).score, prod_score);
  }
}

TEST(FacsController, EvaluateByCvMatchesSnapshotOverload) {
  const FacsController facs;
  const UserSnapshot u = idealUser();
  const FacsEvaluation via_snapshot = facs.evaluate(u, 5.0, 20.0);
  const FacsEvaluation via_cv = facs.evaluate(facs.predictCv(u), 5.0, 20.0);
  EXPECT_EQ(via_snapshot.cv, via_cv.cv);
  EXPECT_EQ(via_snapshot.ar, via_cv.ar);
  EXPECT_EQ(via_snapshot.accept, via_cv.accept);
}

TEST(FacsController, ExplainRationaleFitsTheInlineBufferUntruncated) {
  FacsController facs;
  BaseStation bs{0, 40};
  const AdmissionContext ctx{bs, 0.0, /*explain=*/true};
  const auto d = facs.decide(makeRequest(idealUser(), ServiceClass::Text),
                             ctx);
  EXPECT_FALSE(d.rationale.truncated());
  EXPECT_LE(d.rationale.size(), cellular::ReasonText::kCapacity);
}

TEST(FacsController, NameAndAccessors) {
  const FacsController facs;
  EXPECT_EQ(facs.name(), "FACS");
  EXPECT_EQ(facs.flc1().name(), "FLC1");
  EXPECT_EQ(facs.flc2().name(), "FLC2");
  EXPECT_DOUBLE_EQ(facs.config().accept_threshold, 0.0);
}

TEST(FacsController, FactoryControllersShareOneSealedBuild) {
  // The registry builds and seals FLC1/FLC2 once per spec; every controller
  // from that factory shares them, and decides exactly as a controller that
  // built its own engines from the same config.
  const cellular::HexNetwork net{0};
  for (const char* spec : {"facs", "facs:ops=prod", "facs:defuzz=bisector"}) {
    SCOPED_TRACE(spec);
    const cellular::ControllerFactory factory =
        cellular::PolicyRuntime::defaultRuntime().makeFactory(spec);
    const std::unique_ptr<cellular::AdmissionController> a_owner =
        factory(net);
    const std::unique_ptr<cellular::AdmissionController> b_owner =
        factory(net);
    auto* a = dynamic_cast<FacsController*>(a_owner.get());
    auto* b = dynamic_cast<FacsController*>(b_owner.get());
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(&a->flc1(), &b->flc1());
    EXPECT_EQ(&a->flc2(), &b->flc2());
    EXPECT_TRUE(a->flc1().sealed());
    EXPECT_TRUE(a->flc2().sealed());

    FacsController direct{a->config()};
    EXPECT_NE(&direct.flc1(), &a->flc1());
    for (int occupied : {0, 13, 27, 38}) {
      BaseStation bs{0, 40};
      if (occupied > 0) bs.allocate(99, occupied, true);
      for (int i = 0; i < 60; ++i) {
        UserSnapshot u;
        u.speed_kmh = std::fmod(i * 7.3, 125.0);
        u.angle_deg = std::fmod(i * 37.0, 180.0);
        u.distance_km = std::fmod(i * 0.61, 10.0);
        u.position = {u.distance_km, 0.0};
        const ServiceClass service =
            i % 3 == 0 ? ServiceClass::Video
                       : (i % 3 == 1 ? ServiceClass::Voice : ServiceClass::Text);
        const CallRequest req = makeRequest(u, service, i % 4 == 0);
        AdmissionContext ctx{bs, 0.0};
        ctx.predicted = direct.precompute(u);
        for (FacsController* shared : {a, b}) {
          const cellular::PredictedCv p = shared->precompute(u);
          EXPECT_EQ(p.valid, ctx.predicted.valid);
          EXPECT_EQ(p.cv, ctx.predicted.cv);  // bit-identical, not close
        }
        const auto want = direct.decide(req, ctx);
        for (FacsController* shared : {a, b}) {
          const auto got = shared->decide(req, ctx);
          EXPECT_EQ(got.accept, want.accept);
          EXPECT_EQ(got.reason, want.reason);
          EXPECT_EQ(got.score, want.score);
        }
      }
    }
  }
}

/// The acceptance region grows as occupancy falls, for every service class
/// — the soft-decision analogue of "a good CAC balances blocking and
/// dropping".
class FacsOccupancySweep : public ::testing::TestWithParam<ServiceClass> {};

TEST_P(FacsOccupancySweep, AcceptanceMonotoneInFreeCapacity) {
  const FacsController facs;
  const double demand = cellular::profileFor(GetParam()).demand_bu;
  bool was_rejected_before_accepted = false;
  bool seen_accept = false;
  for (double cs = 40.0; cs >= 0.0; cs -= 1.0) {
    const FacsEvaluation eval = facs.evaluate(idealUser(), demand, cs);
    if (eval.accept) {
      seen_accept = true;
    } else if (seen_accept) {
      was_rejected_before_accepted = true;  // non-monotone flip
    }
  }
  EXPECT_TRUE(seen_accept);
  EXPECT_FALSE(was_rejected_before_accepted);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, FacsOccupancySweep,
                         ::testing::Values(ServiceClass::Text,
                                           ServiceClass::Voice,
                                           ServiceClass::Video));

}  // namespace
}  // namespace facs::core
