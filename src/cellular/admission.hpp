#pragma once
/// \file admission.hpp
/// The Call Admission Control policy interface. FACS (src/core), the
/// Shadow Cluster Concept baseline (src/scc) and the classic policies
/// (src/cac) all implement this; the simulator (src/sim) consumes it.

#include <algorithm>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "cellular/basestation.hpp"
#include "cellular/call.hpp"

namespace facs::cellular {

class CellGroupPartition;  // network.hpp — the engine's cell-to-lane mapping

/// Result of a policy's optional request-time precomputation — the part of
/// a decision that depends only on the user snapshot, so it can be produced
/// before the serialized decision instant (for FACS: the FLC1 correction
/// value). Carried into decide() through AdmissionContext::predicted; an
/// invalid value means "nothing precomputed", and policies fall back to
/// inline inference, so results are identical either way.
struct PredictedCv {
  double cv = 0.0;     ///< Policy-defined prediction (FACS: Cv in [0, 1]).
  bool valid = false;  ///< False = precompute() was skipped or unsupported.
};

/// Everything a policy may consult at decision time beyond the request.
struct AdmissionContext {
  const BaseStation& station;  ///< Ledger of the target cell.
  double now_s = 0.0;          ///< Simulation clock.
  /// Opt-in diagnostics: when set, policies fill
  /// AdmissionDecision::rationale with a human-readable explanation. Off by
  /// default because rationale strings allocate — the simulator makes
  /// millions of decisions and reads only `accept`/`reason`; dashboards and
  /// examples flip this on for the requests they display.
  bool explain = false;
  /// Snapshot-only work hoisted off the serialized decision path (filled by
  /// the caller from a prior precompute() on the SAME snapshot the request
  /// carries). Policies must treat an invalid value as "infer inline".
  PredictedCv predicted{};
};

/// Machine-readable outcome of a decision: *why* a request was admitted or
/// denied, without parsing rationale text. Always set, explain or not.
enum class ReasonCode : std::uint8_t {
  Admitted = 0,        ///< Accepted; capacity and policy criteria met.
  NoCapacity,          ///< The hard ledger cannot fit the demand.
  GuardReserved,       ///< Blocked by a guard band held for handoffs.
  OverClassThreshold,  ///< Occupancy above the request's class cutoff.
  FuzzyReject,         ///< FACS: crisp A/R at or below the threshold tau.
  ProjectedOverload,   ///< SCC: projected demand exceeds survivability.
  LeavesCoverage,      ///< SCC: predicted to exit coverage within horizon.
  SinrTooLow,          ///< SIR below the per-class admission threshold.
  ReservedForHandoff,  ///< Blocked by outstanding handoff reservations.
};

[[nodiscard]] constexpr std::string_view toString(ReasonCode r) noexcept {
  switch (r) {
    case ReasonCode::Admitted:
      return "admitted";
    case ReasonCode::NoCapacity:
      return "no-capacity";
    case ReasonCode::GuardReserved:
      return "guard-reserved";
    case ReasonCode::OverClassThreshold:
      return "over-class-threshold";
    case ReasonCode::FuzzyReject:
      return "fuzzy-reject";
    case ReasonCode::ProjectedOverload:
      return "projected-overload";
    case ReasonCode::LeavesCoverage:
      return "leaves-coverage";
    case ReasonCode::SinrTooLow:
      return "sinr-too-low";
    case ReasonCode::ReservedForHandoff:
      return "reserved-for-handoff";
  }
  // Out-of-range values (a corrupted or half-initialized decision) must not
  // masquerade as a legitimate outcome in logs.
  return "invalid";
}

/// Fixed-capacity inline text for decision rationales. Trivially copyable
/// (no heap, no move machinery), so returning an AdmissionDecision by value
/// costs a plain memcpy whether or not a rationale was written — the
/// explain-off hot path no longer pays even an empty std::string's move.
/// Overlong text is truncated at kCapacity and flagged (truncated());
/// rationales are one-line diagnostics, never data. appendf() formats
/// straight into the inline buffer, so explain-mode policies no longer
/// build a std::ostringstream per decision.
class ReasonText {
 public:
  static constexpr std::size_t kCapacity = 119;
  static constexpr std::size_t npos = std::string_view::npos;

  constexpr ReasonText() noexcept = default;
  // Implicit converting constructors (plus the defaulted copy assignment)
  // let call sites keep writing `decision.rationale = os.str()` or a
  // string literal, exactly as when rationale was a std::string.
  ReasonText(std::string_view text) noexcept { assign(text); }  // NOLINT
  ReasonText(const char* text) noexcept                         // NOLINT
      : ReasonText{std::string_view{text}} {}
  ReasonText(const std::string& text) noexcept                  // NOLINT
      : ReasonText{std::string_view{text}} {}

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// True when any assign()/appendf() since the last clear() did not fit
  /// and the text was cut at kCapacity — detectable, never silent.
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }
  /// NUL-terminated (the buffer always holds a terminator).
  [[nodiscard]] const char* c_str() const noexcept { return text_; }
  [[nodiscard]] std::string_view view() const noexcept {
    return {text_, size_};
  }
  operator std::string_view() const noexcept { return view(); }  // NOLINT

  void clear() noexcept {
    size_ = 0;
    truncated_ = false;
    text_[0] = '\0';
  }

  /// snprintf-style formatted append into the remaining inline capacity.
  /// Returns false (and sets truncated()) when the formatted text did not
  /// fit; whatever fit is kept, so a cut rationale still reads sensibly.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  bool
  appendf(const char* fmt, ...) noexcept {
    std::va_list args;
    va_start(args, fmt);
    const std::size_t room = kCapacity - size_;  // excludes the terminator
    const int wanted = std::vsnprintf(text_ + size_, room + 1, fmt, args);
    va_end(args);
    if (wanted < 0) {  // encoding error: keep the prior content intact
      text_[size_] = '\0';
      return false;
    }
    if (static_cast<std::size_t>(wanted) > room) {
      size_ = static_cast<std::uint8_t>(kCapacity);
      truncated_ = true;
      return false;
    }
    size_ = static_cast<std::uint8_t>(size_ + wanted);
    return true;
  }

  /// std::string-compatible search, so call sites can keep comparing
  /// against std::string::npos.
  [[nodiscard]] std::size_t find(std::string_view needle) const noexcept {
    return view().find(needle);
  }

  friend bool operator==(const ReasonText& a, const ReasonText& b) noexcept {
    return a.view() == b.view();
  }

 private:
  void assign(std::string_view text) noexcept {
    truncated_ = text.size() > kCapacity;
    size_ = static_cast<std::uint8_t>(std::min(text.size(), kCapacity));
    std::copy_n(text.data(), size_, text_);
    text_[size_] = '\0';
  }

  char text_[kCapacity + 1] = {};
  std::uint8_t size_ = 0;
  bool truncated_ = false;
};
static_assert(ReasonText::kCapacity <= 255, "size_ is a uint8_t");

inline std::ostream& operator<<(std::ostream& os, const ReasonText& text) {
  return os << text.view();
}

/// Outcome of one admission decision.
struct AdmissionDecision {
  bool accept = false;
  /// Machine-readable outcome; `Admitted` iff accept. The default matches
  /// the default accept = false (fail safe: a half-initialized decision
  /// reads as a denial, never as a spurious admission).
  ReasonCode reason = ReasonCode::NoCapacity;
  /// Policy-specific confidence in [-1, 1]; for FACS this is the
  /// defuzzified A/R value, for others a coarse mapping. Negative = reject
  /// leaning, positive = accept leaning.
  double score = 0.0;
  /// Human-readable rationale for logs/dashboards. Only populated when the
  /// decision was made with AdmissionContext::explain set; empty on the
  /// hot path, and allocation-free either way.
  ReasonText rationale;
};
static_assert(std::is_trivially_copyable_v<AdmissionDecision>,
              "decide() returns by value on the hot path; keep it memcpy-able");

/// The workload envelope the engine hands to auditWorkload(): the knobs a
/// policy's sizing footguns depend on but cannot see from its own config.
struct WorkloadEnvelope {
  double v_max_kmh = 0.0;      ///< Fastest mobile the scenario can draw.
  double cell_radius_km = 0.0; ///< Hex circumradius of the network's cells.
};

/// Abstract CAC policy (stateful: policies may track per-cell bookkeeping).
///
/// Protocol, driven by the simulator:
///   decide()      — called for every request (new call or handoff) BEFORE
///                   any bandwidth is allocated;
///   onAdmitted()  — called after the simulator allocates bandwidth;
///   onReleased()  — called after a call ends or leaves the cell;
///   onRejected()  — called when a request is denied (blocked/dropped).
///
/// Commit groups (CellGroupPartition): a policy that declares cellLocal()
/// may run at commit_groups > 1, where the engine calls decide() and the
/// on*() hooks for different groups CONCURRENTLY; calls for one group stay
/// serial, in canonical order. Every other policy runs on one group, its
/// hooks serial in canonical order, whatever commit_groups asks for.
/// Results must be the same bits at any worker count.
class AdmissionController {
 public:
  virtual ~AdmissionController() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual AdmissionDecision decide(
      const CallRequest& request, const AdmissionContext& context) = 0;

  /// Optional request-time precomputation: the part of a decision that
  /// depends only on the user snapshot (for FACS, the FLC1 prediction), so
  /// it can run before the serialized decision instant. The simulator calls
  /// this from its PARALLEL prepare and local phases — from many threads,
  /// beside other groups' decide() and on*() calls — so overrides must be
  /// thread-safe and must not touch mutable controller state. The result
  /// is handed back verbatim through
  /// AdmissionContext::predicted when the same request reaches decide();
  /// the default (invalid) result makes decide() infer inline, with
  /// bit-identical outcomes either way.
  [[nodiscard]] virtual PredictedCv precompute(
      const UserSnapshot& /*user*/) const {
    return {};
  }

  virtual void onAdmitted(const CallRequest& /*request*/,
                          const AdmissionContext& /*context*/) {}
  virtual void onReleased(const CallRequest& /*request*/,
                          const AdmissionContext& /*context*/) {}
  virtual void onRejected(const CallRequest& /*request*/,
                          const AdmissionContext& /*context*/) {}

  /// True when every hook reads and writes only the target cell's ledger,
  /// the request and immutable or per-thread state. Only such a policy
  /// runs on several commit groups; for the others the engine builds a
  /// one-group partition and reports it in Metrics::commit_groups.
  [[nodiscard]] virtual bool cellLocal() const { return false; }

  /// A no-op that nothing overrides and the engine never calls. Kept only
  /// because perfbench/probes.cpp calls it.
  virtual void onPartitionChanged(const CellGroupPartition& /*partition*/) {}

  /// Startup sizing audit: given the workload envelope, return a one-line
  /// warning when the policy's configuration silently degrades under it
  /// (e.g. an SCC reach too small for the fastest mobile's projection
  /// horizon), or an empty string when the sizing is sound. The engine
  /// prints a non-empty result once on stderr and counts it in
  /// Metrics::policy_warnings; decisions never depend on it.
  [[nodiscard]] virtual std::string auditWorkload(
      const WorkloadEnvelope& /*envelope*/) const {
    return {};
  }

 protected:
  AdmissionController() = default;
  AdmissionController(const AdmissionController&) = default;
  AdmissionController& operator=(const AdmissionController&) = default;
};

}  // namespace facs::cellular
