#include "cac/sir_controller.hpp"

#include <algorithm>

#include "cellular/network.hpp"
#include "cellular/policy_registry.hpp"

namespace facs::cac {

using cellular::AdmissionContext;
using cellular::AdmissionDecision;
using cellular::CallRequest;
using cellular::CellId;
using cellular::ReasonCode;

SirController::SirController(const cellular::HexNetwork& network,
                             SirThresholds thresholds)
    : radio_{network}, thresholds_{thresholds} {}

AdmissionDecision SirController::decide(const CallRequest& request,
                                        const AdmissionContext& context) {
  const CellId serving = context.station.cell();
  double sinr_db;
  if (!grouped()) {
    sinr_db = radio_.sinrDb(request.snapshot.position, serving);
  } else {
    // Grouped read discipline: own-group utilizations live (this lane
    // owns their ledgers for the window), foreign groups from the barrier
    // snapshot. Same interferer walk and arithmetic as sinrDb().
    const int my_group = group_of_[serving];
    const cellular::HexNetwork& net = radio_.network();
    sinr_db = radio_.sinrDbWith(
        request.snapshot.position, serving, [&](CellId cell) {
          return group_of_[cell] == my_group ? net.station(cell).utilization()
                                             : snapshot_[cell];
        });
  }
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

void SirController::onPartitionChanged(
    const cellular::CellGroupPartition& partition) {
  const std::size_t cells = radio_.network().cellCount();
  partition_groups_ = partition.groups();
  group_of_.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    group_of_[c] = partition.groupOf(static_cast<CellId>(c));
  }
  // Barrier context: ledgers are quiescent, so priming the snapshot here
  // (startup and every adopted repartition epoch) is race-free and leaves
  // no stale rows behind a re-keyed group map.
  snapshot_.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    snapshot_[c] = radio_.network().station(static_cast<CellId>(c)).utilization();
  }
}

cellular::BarrierDrainStats SirController::onCommitBarrier(double /*now_s*/) {
  // Only the grouped read path consumes the snapshot; a single-group run
  // must stay byte-for-byte on the legacy metrics too, so leave its
  // counters untouched.
  if (!grouped()) return {};
  cellular::BarrierDrainStats stats;
  const cellular::HexNetwork& net = radio_.network();
  for (std::size_t c = 0; c < snapshot_.size(); ++c) {
    const double live = net.station(static_cast<CellId>(c)).utilization();
    if (snapshot_[c] != live) {
      snapshot_[c] = live;
      ++stats.deltas_applied;
    }
  }
  return stats;
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
