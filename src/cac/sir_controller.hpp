#pragma once
/// \file sir_controller.hpp
/// SIR-based call admission — the interference-aware CAC family of the
/// paper's Section 1 ("the acceptance of a new request depends on
/// Signal-to-Interference Ratio (SIR) value", citing Wang et al. and
/// Xiao–Shroff–Chong). A request is admitted only if (a) the requester's
/// downlink SINR clears a per-class threshold and (b) the bandwidth fits.
///
/// decide() sums the interference of every other station in the network —
/// the exact whole-network sum, read live from the station ledgers. It
/// reads other cells, so the engine runs it on one commit group.

#include <array>
#include <string>

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

  [[nodiscard]] double threshold(cellular::ServiceClass c) const noexcept {
    return thresholds_.min_sinr_db[static_cast<std::size_t>(c)];
  }

 private:
  cellular::RadioModel radio_;
  SirThresholds thresholds_;
};

}  // namespace facs::cac
