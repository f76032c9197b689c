#include "cac/sir_controller.hpp"

#include <algorithm>

#include "cellular/policy_registry.hpp"

namespace facs::cac {

using cellular::AdmissionContext;
using cellular::AdmissionDecision;
using cellular::CallRequest;
using cellular::ReasonCode;

SirController::SirController(const cellular::HexNetwork& network,
                             SirThresholds thresholds)
    : radio_{network}, thresholds_{thresholds} {}

AdmissionDecision SirController::decide(const CallRequest& request,
                                        const AdmissionContext& context) {
  const double sinr_db =
      radio_.sinrDb(request.snapshot.position, context.station.cell());
  const double needed_db = threshold(request.service);
  const bool clean_enough = sinr_db >= needed_db;
  const bool fits = context.station.canFit(request.demand_bu);

  AdmissionDecision d;
  d.accept = clean_enough && fits;
  d.reason = d.accept         ? ReasonCode::Admitted
             : !clean_enough  ? ReasonCode::SinrTooLow
                              : ReasonCode::NoCapacity;
  // Confidence: SINR margin scaled into [-1, 1] over a 10 dB window.
  d.score = std::clamp((sinr_db - needed_db) / 10.0, -1.0, 1.0);
  if (context.explain) {
    d.rationale.appendf("sinr=%gdB need=%gdB", sinr_db, needed_db);
    if (!fits) d.rationale.appendf(" (no free BU)");
  }
  return d;
}

// ------------------------------------------------------------------------
namespace {

using cellular::PolicyRegistrar;
using cellular::PolicySpec;

const PolicyRegistrar register_sir{
    {"sir",
     "SIR-based CAC: admit only when downlink SINR clears a per-class "
     "threshold and the bandwidth fits.",
     "sir[:T_text,T_voice,T_video]  (min SINR dB, default -3,1,5)"},
    [](const PolicySpec& spec) -> cellular::ControllerFactory {
      spec.expectOnly(cellular::kServiceClassCount, {});
      if (!spec.positional().empty() &&
          spec.positionalCount() != cellular::kServiceClassCount) {
        throw cellular::PolicySpecError(
            "policy 'sir': expects exactly " +
            std::to_string(cellular::kServiceClassCount) +
            " SINR thresholds (text, voice, video)");
      }
      SirThresholds thresholds;
      for (std::size_t i = 0; i < spec.positionalCount(); ++i) {
        thresholds.min_sinr_db[i] = spec.numberAt(i, thresholds.min_sinr_db[i]);
      }
      return [thresholds](const cellular::HexNetwork& net) {
        return std::make_unique<SirController>(net, thresholds);
      };
    }};

}  // namespace

}  // namespace facs::cac
