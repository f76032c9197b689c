#pragma once
/// \file call.hpp
/// Call requests and call lifecycle states.

#include <cstdint>
#include <string_view>

#include "cellular/geometry.hpp"
#include "cellular/traffic.hpp"

namespace facs::cellular {

using CallId = std::uint64_t;
using CellId = std::uint32_t;
using UserId = std::uint64_t;

inline constexpr CellId kInvalidCell = static_cast<CellId>(-1);

/// Lifecycle of a call in the simulator.
enum class CallState : std::uint8_t {
  Requested,  ///< Created, awaiting the admission decision.
  Active,     ///< Admitted and consuming bandwidth.
  Completed,  ///< Ended normally.
  Blocked,    ///< New-call request denied.
  Dropped,    ///< Active call lost at handoff (no capacity in target cell).
};

[[nodiscard]] std::string_view toString(CallState s) noexcept;

/// What the controller knows about the requesting user at decision time —
/// exactly the paper's FLC1 measurement vector, as produced by the GPS
/// estimator (Section 3: "The user movement is obtained by GPS and the
/// fuzzy decision is based on the user speed, angle and distance from the
/// Base Station").
struct UserSnapshot {
  double speed_kmh = 0.0;    ///< S in [0, 120].
  double angle_deg = 0.0;    ///< A in (-180, 180]; 0 = moving toward the BS.
  double distance_km = 0.0;  ///< D in [0, 10].
  Vec2 position{};           ///< Raw position (for multi-cell simulations).
};

/// An admission request presented to a CAC policy.
struct CallRequest {
  CallId call = 0;
  UserId user = 0;
  ServiceClass service = ServiceClass::Text;
  BandwidthUnits demand_bu = 1;
  UserSnapshot snapshot{};
  CellId target_cell = kInvalidCell;
  bool is_handoff = false;  ///< Handoffs are dropping- not blocking-events.
};

}  // namespace facs::cellular
