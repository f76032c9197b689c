#pragma once
/// \file traffic.hpp
/// Service classes and the traffic mix of the paper's evaluation
/// (Section 4): text / voice / video requesting 1 / 5 / 10 bandwidth units
/// (BU) with arrival mix 60 / 30 / 10 %, against a 40 BU base station.

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/rng.hpp"

namespace facs::cellular {

/// Bandwidth is accounted in the paper's integral Bandwidth Units.
using BandwidthUnits = int;

/// Base-station capacity used throughout the paper's evaluation.
inline constexpr BandwidthUnits kPaperCellCapacityBu = 40;

/// The three service classes of the paper.
enum class ServiceClass : std::uint8_t { Text = 0, Voice = 1, Video = 2 };
inline constexpr std::size_t kServiceClassCount = 3;

[[nodiscard]] std::string_view toString(ServiceClass c) noexcept;

/// Static description of one service class.
struct ServiceProfile {
  ServiceClass service = ServiceClass::Text;
  BandwidthUnits demand_bu = 1;   ///< BUs consumed while the call is active.
  bool real_time = false;         ///< Voice/video are real-time (RTC); text is not (NRTC).
  double mean_holding_s = 120.0;  ///< Mean call holding time (exponential).
};

/// The paper's service profiles: text=1 BU (non-real-time), voice=5 BU,
/// video=10 BU (real-time).
[[nodiscard]] const ServiceProfile& profileFor(ServiceClass c) noexcept;

/// Arrival mix over the three classes. Fractions must be non-negative and
/// sum to 1 (validated on construction).
class TrafficMix {
 public:
  /// \throws std::invalid_argument if fractions are negative or do not sum
  ///         to 1 within 1e-9.
  TrafficMix(double text_fraction, double voice_fraction,
             double video_fraction);

  /// The paper's 60/30/10 % mix.
  [[nodiscard]] static TrafficMix paperDefault() {
    return TrafficMix{0.60, 0.30, 0.10};
  }

  [[nodiscard]] double fraction(ServiceClass c) const noexcept {
    return fractions_[static_cast<std::size_t>(c)];
  }

  /// Mean BU demand of one arrival under this mix.
  [[nodiscard]] double meanDemandBu() const noexcept;

  /// Samples a service class according to the mix.
  [[nodiscard]] ServiceClass sample(sim::Rng& rng) const;

 private:
  std::array<double, kServiceClassCount> fractions_;
};

}  // namespace facs::cellular
