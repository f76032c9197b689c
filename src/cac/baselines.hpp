#pragma once
/// \file baselines.hpp
/// Classic call-admission policies used as ablation baselines:
///
///  * Complete Sharing (CS) — the paper's Section 1 strawman: admit iff
///    enough free channels exist; unfair to wide calls.
///  * Guard Channel — reserve g BUs that only handoffs (and prioritized
///    calls) may use; the standard handoff-protection scheme.
///  * Multi-threshold — per-class occupancy cutoffs, the shape of the
///    optimal policy of Bartolini & Chlamtac (PIMRC'02) cited in Section 1.

#include <array>

#include "cellular/admission.hpp"

namespace facs::cac {

/// Complete Sharing: admit whenever the request fits.
class CompleteSharingController final : public cellular::AdmissionController {
 public:
  [[nodiscard]] std::string name() const override { return "CS"; }

  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override;
  [[nodiscard]] bool cellLocal() const override { return true; }
};

/// Guard Channel: new calls may only use capacity - guard_bu units;
/// handoffs may use everything.
class GuardChannelController final : public cellular::AdmissionController {
 public:
  /// \throws std::invalid_argument if guard_bu is negative.
  explicit GuardChannelController(cellular::BandwidthUnits guard_bu);

  [[nodiscard]] std::string name() const override { return "GuardChannel"; }

  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override;
  [[nodiscard]] bool cellLocal() const override { return true; }

  [[nodiscard]] cellular::BandwidthUnits guardBu() const noexcept {
    return guard_bu_;
  }

 private:
  cellular::BandwidthUnits guard_bu_;
};

/// Multi-threshold policy: class c is admitted only while occupancy is at
/// or below its threshold. Wide (video) classes get lower thresholds so
/// narrow classes are not starved — "fairness in blocking".
class MultiThresholdController final : public cellular::AdmissionController {
 public:
  /// \param thresholds_bu occupancy cutoffs indexed by ServiceClass
  ///        (text, voice, video).
  /// \throws std::invalid_argument on negative thresholds.
  explicit MultiThresholdController(
      std::array<cellular::BandwidthUnits, cellular::kServiceClassCount>
          thresholds_bu);

  [[nodiscard]] std::string name() const override { return "MultiThreshold"; }

  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override;
  [[nodiscard]] bool cellLocal() const override { return true; }

  [[nodiscard]] cellular::BandwidthUnits threshold(
      cellular::ServiceClass c) const noexcept {
    return thresholds_[static_cast<std::size_t>(c)];
  }

 private:
  std::array<cellular::BandwidthUnits, cellular::kServiceClassCount>
      thresholds_;
};

}  // namespace facs::cac
