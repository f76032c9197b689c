#include "cac/baselines.hpp"

#include <sstream>
#include <stdexcept>

#include "cellular/policy_registry.hpp"

namespace facs::cac {

using cellular::AdmissionContext;
using cellular::AdmissionDecision;
using cellular::BandwidthUnits;
using cellular::CallRequest;
using cellular::ReasonCode;

AdmissionDecision CompleteSharingController::decide(
    const CallRequest& request, const AdmissionContext& context) {
  const bool fits = context.station.canFit(request.demand_bu);
  AdmissionDecision d;
  d.accept = fits;
  d.reason = fits ? ReasonCode::Admitted : ReasonCode::NoCapacity;
  d.score = fits ? 1.0 : -1.0;
  if (context.explain) {
    std::ostringstream os;
    os << "free=" << context.station.freeBu() << " need=" << request.demand_bu;
    d.rationale = os.str();
  }
  return d;
}

GuardChannelController::GuardChannelController(BandwidthUnits guard_bu)
    : guard_bu_{guard_bu} {
  if (guard_bu_ < 0) {
    throw std::invalid_argument("guard channels must be >= 0");
  }
}

AdmissionDecision GuardChannelController::decide(
    const CallRequest& request, const AdmissionContext& context) {
  const bool privileged = request.is_handoff;
  const BandwidthUnits usable =
      privileged ? context.station.freeBu()
                 : context.station.freeBu() - guard_bu_;
  const bool accept = request.demand_bu <= usable;
  AdmissionDecision d;
  d.accept = accept;
  if (accept) {
    d.reason = ReasonCode::Admitted;
  } else {
    // Distinguish "the cell is genuinely full" from "the guard band alone
    // blocked this new call".
    d.reason = context.station.canFit(request.demand_bu)
                   ? ReasonCode::GuardReserved
                   : ReasonCode::NoCapacity;
  }
  d.score = accept ? 1.0 : -1.0;
  if (context.explain) {
    std::ostringstream os;
    os << (privileged ? "privileged" : "new-call") << " usable=" << usable
       << " need=" << request.demand_bu;
    d.rationale = os.str();
  }
  return d;
}

MultiThresholdController::MultiThresholdController(
    std::array<BandwidthUnits, cellular::kServiceClassCount> thresholds_bu)
    : thresholds_{thresholds_bu} {
  for (const BandwidthUnits t : thresholds_) {
    if (t < 0) {
      throw std::invalid_argument("class thresholds must be >= 0");
    }
  }
}

AdmissionDecision MultiThresholdController::decide(
    const CallRequest& request, const AdmissionContext& context) {
  const BandwidthUnits cutoff = threshold(request.service);
  const bool under_threshold = context.station.occupiedBu() <= cutoff;
  const bool fits = context.station.canFit(request.demand_bu);
  AdmissionDecision d;
  d.accept = under_threshold && fits;
  d.reason = d.accept ? ReasonCode::Admitted
             : fits   ? ReasonCode::OverClassThreshold
                      : ReasonCode::NoCapacity;
  d.score = d.accept ? 1.0 : -1.0;
  if (context.explain) {
    std::ostringstream os;
    os << "occupied=" << context.station.occupiedBu() << " cutoff=" << cutoff;
    if (!fits) os << " (no free BU)";
    d.rationale = os.str();
  }
  return d;
}

// ------------------------------------------------------------------------
// Registry entries. Linked into every binary via the facs_core OBJECT
// library, so these registrars always run.
namespace {

using cellular::HexNetwork;
using cellular::PolicyRegistrar;
using cellular::PolicySpec;

const PolicyRegistrar register_cs{
    {"cs", "Complete Sharing: admit whenever the request fits.", "cs"},
    [](const PolicySpec& spec) -> cellular::ControllerFactory {
      spec.expectOnly(0, {});
      return [](const HexNetwork&) {
        return std::make_unique<CompleteSharingController>();
      };
    }};

const PolicyRegistrar register_guard{
    {"guard",
     "Guard Channel: reserve G BUs that only handoffs may use.",
     "guard[:G]  (reserved BUs, default 8)"},
    [](const PolicySpec& spec) -> cellular::ControllerFactory {
      spec.expectOnly(1, {"g"});
      const int guard = spec.intFor("g", spec.intAt(0, 8));
      if (guard < 0) {
        throw cellular::PolicySpecError(
            "policy 'guard': reserved BUs must be >= 0");
      }
      return [guard](const HexNetwork&) {
        return std::make_unique<GuardChannelController>(guard);
      };
    }};

const PolicyRegistrar register_threshold{
    {"threshold",
     "Multi-threshold: per-class occupancy cutoffs (text, voice, video).",
     "threshold[:T_text,T_voice,T_video]  (default 38,30,20)"},
    [](const PolicySpec& spec) -> cellular::ControllerFactory {
      spec.expectOnly(cellular::kServiceClassCount, {});
      if (!spec.positional().empty() &&
          spec.positionalCount() != cellular::kServiceClassCount) {
        throw cellular::PolicySpecError(
            "policy 'threshold': expects exactly " +
            std::to_string(cellular::kServiceClassCount) +
            " cutoffs (text, voice, video)");
      }
      std::array<BandwidthUnits, cellular::kServiceClassCount> cutoffs{
          38, 30, 20};
      for (std::size_t i = 0; i < spec.positionalCount(); ++i) {
        const int v = spec.intAt(i, cutoffs[i]);
        if (v < 0) {
          throw cellular::PolicySpecError(
              "policy 'threshold': cutoffs must be >= 0");
        }
        cutoffs[i] = v;
      }
      return [cutoffs](const HexNetwork&) {
        return std::make_unique<MultiThresholdController>(cutoffs);
      };
    }};

}  // namespace

}  // namespace facs::cac
