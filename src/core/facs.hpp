#pragma once
/// \file facs.hpp
/// FACS — the paper's Fuzzy Admission Control System (Fig. 4): the FLC1
/// prediction stage cascaded into the FLC2 admission stage, plus the
/// differentiated-service bookkeeping (Ds routing into the RTC / NRTC
/// counters, which the base-station ledger maintains).

#include <cstdint>
#include <memory>
#include <string_view>

#include "cellular/admission.hpp"
#include "core/flc1.hpp"
#include "core/flc2.hpp"

namespace facs::core {

/// The paper's five-level soft admission decision (Section 3.2): "not only
/// 'accept' and 'reject' but also 'weak accept', 'weak reject', and 'not
/// accept not reject'".
enum class SoftDecision : std::uint8_t {
  Reject = 0,
  WeakReject = 1,
  NotRejectNotAccept = 2,
  WeakAccept = 3,
  Accept = 4,
};

[[nodiscard]] std::string_view toString(SoftDecision d) noexcept;

/// Tunables of the FACS controller.
struct FacsConfig {
  fuzzy::EngineConfig flc1;  ///< Operators of the prediction stage.
  fuzzy::EngineConfig flc2;  ///< Operators of the admission stage.

  /// A request is admitted iff the crisp A/R value exceeds this threshold.
  /// 0 is the neutral midpoint of the output universe (the centre of the
  /// "not reject not accept" term); swept by bench/ablation_design.
  double accept_threshold = 0.0;

  /// Handoff prioritisation: lower the threshold for handoff requests by
  /// this amount (users are "much more sensitive to call dropping than to
  /// call blocking", Section 1). Disabled (0) by default to match the
  /// paper's single-threshold evaluation.
  double handoff_bias = 0.0;
};

/// Outcome of one full FACS evaluation (both stages).
struct FacsEvaluation {
  double cv = 0.0;        ///< FLC1 output: correction value in [0, 1].
  double ar = 0.0;        ///< FLC2 output: crisp A/R in [-1, 1].
  SoftDecision soft = SoftDecision::NotRejectNotAccept;
  bool accept = false;
};

/// The complete admission system. Stateless between calls apart from the
/// immutable engines, so one instance may serve many cells concurrently.
///
/// Construction builds and seals both engines; a copy shares them (they are
/// immutable, and inference scratch is per-thread), so the registry builds
/// one prototype per policy spec and hands out copies.
class FacsController final : public cellular::AdmissionController {
 public:
  explicit FacsController(FacsConfig config = {});

  [[nodiscard]] std::string name() const override { return "FACS"; }
  /// FLC2 reads the target cell's occupancy alone.
  [[nodiscard]] bool cellLocal() const override { return true; }

  /// Full two-stage evaluation from raw measurements. \p occupied_bu is the
  /// counter state Cs of the target base station.
  [[nodiscard]] FacsEvaluation evaluate(const cellular::UserSnapshot& user,
                                        double demand_bu, double occupied_bu,
                                        bool is_handoff = false) const;

  /// Admission stage only, from an already-predicted Cv — the FLC2 path
  /// every decide() runs. Bit-identical to the snapshot overload fed the
  /// same Cv.
  [[nodiscard]] FacsEvaluation evaluate(double predicted_cv, double demand_bu,
                                        double occupied_bu,
                                        bool is_handoff = false) const;

  /// Prediction stage only: Cv from (S, A, D).
  [[nodiscard]] double predictCv(const cellular::UserSnapshot& user) const;

  /// FLC1 as a request-time precompute: depends only on the snapshot, so
  /// the simulator runs it in the parallel prepare phase. Thread-safe (the
  /// engines are immutable and sealed; scratch state is per-thread).
  [[nodiscard]] cellular::PredictedCv precompute(
      const cellular::UserSnapshot& user) const override;

  /// Consumes context.predicted when valid (the precomputed FLC1 output);
  /// falls back to inline FLC1 inference otherwise, then runs the FLC2
  /// stage through evaluate(). Same decision either way, bit for bit.
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override;

  /// Maps a crisp A/R value onto the paper's five-level soft decision
  /// (winning output term of FLC2).
  [[nodiscard]] SoftDecision classify(double ar) const;

  [[nodiscard]] const fuzzy::MamdaniEngine& flc1() const noexcept {
    return engines_->flc1;
  }
  [[nodiscard]] const fuzzy::MamdaniEngine& flc2() const noexcept {
    return engines_->flc2;
  }
  [[nodiscard]] const FacsConfig& config() const noexcept { return config_; }

 private:
  struct Engines {
    fuzzy::MamdaniEngine flc1;
    fuzzy::MamdaniEngine flc2;
  };

  FacsConfig config_;
  std::shared_ptr<const Engines> engines_;
};

}  // namespace facs::core
