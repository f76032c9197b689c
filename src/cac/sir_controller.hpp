#pragma once
/// \file sir_controller.hpp
/// SIR-based call admission — the interference-aware CAC family of the
/// paper's Section 1 ("the acceptance of a new request depends on
/// Signal-to-Interference Ratio (SIR) value", citing Wang et al. and
/// Xiao–Shroff–Chong). A request is admitted only if (a) the requester's
/// downlink SINR clears a per-class threshold and (b) the bandwidth fits.
///
/// decide() sums the interference of every other station in the network —
/// the exact whole-network sum — and a barrier snapshot confines what a
/// lane reads outside its own commit group. Interferers in the acting cell's own commit group
/// are read live in-lane (they cannot change under the lane that owns
/// them); interferers in other groups are read from a per-cell utilization
/// snapshot refreshed single-threaded at every tick-window barrier
/// (onCommitBarrier), AFTER the engine's reservation drain — i.e.
/// cross-group interference is visible with at most one tick-window of lag,
/// the same barrier-visibility semantics as grouped SCC. Results are
/// seed-stable and shard-invariant for a fixed group count; at one group
/// every read is live.

#include <array>
#include <string>
#include <vector>

#include "cellular/admission.hpp"
#include "cellular/radio.hpp"

namespace facs::cac {

/// Per-class SINR admission thresholds in dB. Video needs the cleanest
/// channel; text tolerates the worst.
struct SirThresholds {
  std::array<double, cellular::kServiceClassCount> min_sinr_db{
      -3.0,  // text: robust low-rate coding
      1.0,   // voice
      5.0,   // video
  };
};

class SirController final : public cellular::AdmissionController {
 public:
  /// Builds the controller's radio model over \p network (not owned; must
  /// outlive the controller).
  explicit SirController(const cellular::HexNetwork& network,
                         SirThresholds thresholds = {});

  [[nodiscard]] std::string name() const override { return "SIR"; }

  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override;

  /// Copies the engine's cell-to-group mapping and primes the utilization
  /// snapshot (barrier context: single-threaded, ledgers quiescent).
  void onPartitionChanged(const cellular::CellGroupPartition& partition) override;

  /// Refreshes the out-of-group utilization snapshot from the committed
  /// ledgers. Reported deltas = snapshot entries whose value changed, so
  /// cross-group interference traffic shows up in Metrics::demand_deltas.
  cellular::BarrierDrainStats onCommitBarrier(double now_s) override;

  [[nodiscard]] double threshold(cellular::ServiceClass c) const noexcept {
    return thresholds_.min_sinr_db[static_cast<std::size_t>(c)];
  }

 private:
  /// True when decides must split reads between live in-group ledgers and
  /// the barrier snapshot: a real multi-group partition adopted.
  /// Single-group runs (and standalone use without an engine) read
  /// everything live.
  [[nodiscard]] bool grouped() const noexcept { return partition_groups_ > 1; }

  cellular::RadioModel radio_;
  SirThresholds thresholds_;
  int partition_groups_ = 1;
  std::vector<int> group_of_;      ///< Cell -> commit group (engine's map).
  std::vector<double> snapshot_;   ///< Cell -> utilization at last barrier.
};

}  // namespace facs::cac
