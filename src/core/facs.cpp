#include "core/facs.hpp"

#include <array>

#include "cellular/policy_registry.hpp"

namespace facs::core {

std::string_view toString(SoftDecision d) noexcept {
  switch (d) {
    case SoftDecision::Reject:
      return "reject";
    case SoftDecision::WeakReject:
      return "weak-reject";
    case SoftDecision::NotRejectNotAccept:
      return "not-reject-not-accept";
    case SoftDecision::WeakAccept:
      return "weak-accept";
    case SoftDecision::Accept:
      return "accept";
  }
  // Out-of-range values (a corrupted decision) must not read like a
  // legitimate soft level in logs.
  return "invalid";
}

FacsController::FacsController(FacsConfig config)
    : config_{config},
      engines_{std::make_shared<const Engines>(
          Engines{buildFlc1(config.flc1), buildFlc2(config.flc2)})} {}

double FacsController::predictCv(const cellular::UserSnapshot& user) const {
  const std::array<double, 3> inputs{user.speed_kmh, user.angle_deg,
                                     user.distance_km};
  return flc1().infer(inputs);
}

SoftDecision FacsController::classify(double ar) const {
  // Term order in FLC2's output variable matches the SoftDecision values.
  return static_cast<SoftDecision>(flc2().output().winningTerm(ar));
}

cellular::PredictedCv FacsController::precompute(
    const cellular::UserSnapshot& user) const {
  return {predictCv(user), true};
}

FacsEvaluation FacsController::evaluate(double predicted_cv, double demand_bu,
                                        double occupied_bu,
                                        bool is_handoff) const {
  const std::array<double, 3> inputs{predicted_cv, demand_bu, occupied_bu};
  FacsEvaluation eval;
  eval.cv = predicted_cv;
  eval.ar = flc2().infer(inputs);
  eval.soft = classify(eval.ar);

  double threshold = config_.accept_threshold;
  if (is_handoff) threshold -= config_.handoff_bias;
  // Ties reject: a defuzzified A/R within numerical noise of the threshold
  // (e.g. a pure "not reject not accept" outcome against tau = 0) must not
  // flip on the sign of a 1e-18 rounding residue.
  constexpr double kDecisionEpsilon = 1e-9;
  eval.accept = eval.ar > threshold + kDecisionEpsilon;
  return eval;
}

FacsEvaluation FacsController::evaluate(const cellular::UserSnapshot& user,
                                        double demand_bu, double occupied_bu,
                                        bool is_handoff) const {
  return evaluate(predictCv(user), demand_bu, occupied_bu, is_handoff);
}

cellular::AdmissionDecision FacsController::decide(
    const cellular::CallRequest& request,
    const cellular::AdmissionContext& context) {
  // FLC1 ran at request time iff the caller precomputed it (the sharded
  // simulator's parallel prepare phase); otherwise run it inline. Same
  // function of the same snapshot, so the decision is identical either way.
  const double cv = context.predicted.valid ? context.predicted.cv
                                            : predictCv(request.snapshot);
  const FacsEvaluation eval =
      evaluate(cv, static_cast<double>(request.demand_bu),
               static_cast<double>(context.station.occupiedBu()),
               request.is_handoff);

  // The fuzzy stages never see the hard ledger; enforce the capacity
  // invariant here so an "accept" is always allocatable.
  const bool fits = context.station.canFit(request.demand_bu);

  cellular::AdmissionDecision decision;
  decision.accept = eval.accept && fits;
  decision.reason = decision.accept ? cellular::ReasonCode::Admitted
                    : eval.accept   ? cellular::ReasonCode::NoCapacity
                                    : cellular::ReasonCode::FuzzyReject;
  decision.score = eval.ar;
  if (context.explain) {
    const std::string_view soft = toString(eval.soft);
    decision.rationale.appendf("cv=%g ar=%g soft=%.*s", eval.cv, eval.ar,
                               static_cast<int>(soft.size()), soft.data());
    if (eval.accept && !fits) decision.rationale.appendf(" (no free BU)");
  }
  return decision;
}

// ------------------------------------------------------------------------
namespace {

using cellular::PolicyRegistrar;
using cellular::PolicySpec;
using cellular::PolicySpecError;

/// Operator-family shorthand used by the design ablations: `ops=minmax`
/// (the paper's min/max Mamdani), `ops=prod` (Larsen product/probor) or
/// `ops=luk` (Lukasiewicz conjunction).
void applyOperatorFamily(FacsConfig& cfg, const std::string& ops) {
  if (ops == "minmax") return;
  if (ops == "prod") {
    for (fuzzy::EngineConfig* e : {&cfg.flc1, &cfg.flc2}) {
      e->conjunction = fuzzy::TNorm::AlgebraicProduct;
      e->implication = fuzzy::TNorm::AlgebraicProduct;
      e->aggregation = fuzzy::SNorm::AlgebraicSum;
    }
    return;
  }
  if (ops == "luk") {
    cfg.flc1.conjunction = fuzzy::TNorm::BoundedDifference;
    cfg.flc2.conjunction = fuzzy::TNorm::BoundedDifference;
    return;
  }
  throw PolicySpecError("policy 'facs': unknown ops '" + ops +
                        "' (minmax|prod|luk)");
}

fuzzy::Defuzzifier parseDefuzzifier(const std::string& name) {
  if (name == "centroid") return fuzzy::Defuzzifier::Centroid;
  if (name == "bisector") return fuzzy::Defuzzifier::Bisector;
  if (name == "mom") return fuzzy::Defuzzifier::MeanOfMax;
  if (name == "som") return fuzzy::Defuzzifier::SmallestOfMax;
  if (name == "lom") return fuzzy::Defuzzifier::LargestOfMax;
  throw PolicySpecError("policy 'facs': unknown defuzzifier '" + name +
                        "' (centroid|bisector|mom|som|lom)");
}

const PolicyRegistrar register_facs{
    {"facs",
     "The paper's Fuzzy Admission Control System (FLC1 prediction cascaded "
     "into FLC2 admission).",
     "facs[:TAU][,tau=T,handoff=H,ops=minmax|prod|luk,"
     "defuzz=centroid|bisector|mom|som|lom]"},
    [](const PolicySpec& spec) -> cellular::ControllerFactory {
      spec.expectOnly(1, {"tau", "handoff", "ops", "defuzz"});
      FacsConfig cfg;
      cfg.accept_threshold = spec.numberFor("tau", spec.numberAt(0, 0.0));
      cfg.handoff_bias = spec.numberFor("handoff", cfg.handoff_bias);
      applyOperatorFamily(cfg, spec.keywordFor("ops", "minmax"));
      if (spec.hasKey("defuzz")) {
        const fuzzy::Defuzzifier d =
            parseDefuzzifier(spec.keywordFor("defuzz", "centroid"));
        cfg.flc1.defuzzifier = d;
        cfg.flc2.defuzzifier = d;
      }
      // FLC1/FLC2 are built and sealed here, once per spec; every
      // controller the factory makes is a copy sharing them.
      auto prototype = std::make_shared<const FacsController>(cfg);
      return [prototype](const cellular::HexNetwork&) {
        return std::make_unique<FacsController>(*prototype);
      };
    }};

}  // namespace

}  // namespace facs::core
