#pragma once
/// \file geometry.hpp
/// Planar geometry and hexagonal-grid math for the cellular substrate.
///
/// Conventions:
///  * distances in kilometres, angles in degrees;
///  * headings are compass-free math angles: 0 deg = +x axis, counter-
///    clockwise positive, normalized to (-180, 180];
///  * the paper's "user Angle (A)" is the signed deviation between the
///    user's heading and the bearing from the user to the base station
///    (0 = heading straight at the BS, +/-180 = moving directly away).

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/detmath.hpp"

namespace facs::cellular {

inline constexpr double kPi = 3.14159265358979323846;

[[nodiscard]] constexpr double degToRad(double deg) noexcept {
  return deg * kPi / 180.0;
}
[[nodiscard]] constexpr double radToDeg(double rad) noexcept {
  return rad * 180.0 / kPi;
}

/// Normalizes an angle in degrees to (-180, 180].
[[nodiscard]] double normalizeAngleDeg(double deg) noexcept;

/// 2-D point / vector in kilometres.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2 operator+(Vec2 o) const noexcept { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const noexcept { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const noexcept { return {x * s, y * s}; }
  friend constexpr bool operator==(const Vec2&, const Vec2&) = default;

  [[nodiscard]] double norm() const noexcept {
    return detmath::hypot(x, y);
  }
  [[nodiscard]] double distanceTo(Vec2 o) const noexcept {
    return (*this - o).norm();
  }
};

/// Unit vector for a heading in degrees.
[[nodiscard]] Vec2 headingVector(double heading_deg) noexcept;

/// Math-angle (degrees) of the vector from \p from to \p to.
[[nodiscard]] double bearingDeg(Vec2 from, Vec2 to) noexcept;

/// Signed deviation in (-180, 180] between a heading and the bearing from
/// \p from to \p target: 0 means moving straight at the target; negative
/// values mean the target lies to the right of the travel direction.
[[nodiscard]] double headingDeviationDeg(double heading_deg, Vec2 from,
                                         Vec2 target) noexcept;

/// Axial coordinates of a pointy-top hexagonal cell.
struct HexCoord {
  int q = 0;
  int r = 0;
  friend constexpr bool operator==(const HexCoord&, const HexCoord&) = default;
};

/// Hex s-coordinate (cube constraint q + r + s = 0).
[[nodiscard]] constexpr int hexS(HexCoord h) noexcept { return -h.q - h.r; }

/// Grid distance between two hexes (number of cell hops).
[[nodiscard]] int hexDistance(HexCoord a, HexCoord b) noexcept;

/// The six neighbours of a hex, in fixed order (E, NE, NW, W, SW, SE).
[[nodiscard]] std::vector<HexCoord> hexNeighbors(HexCoord h);

/// Centre of a pointy-top hex with circumradius \p cell_radius_km.
[[nodiscard]] Vec2 hexCenter(HexCoord h, double cell_radius_km) noexcept;

/// std::round without the libm call: the nearest integer, half-way cases
/// away from zero (zero's sign aside). A truncating cast, then a one-step
/// fix-up; x - trunc(x) is exact in double, so ties are decided exactly.
/// \p x must be finite with |x| < 2^63.
[[nodiscard]] constexpr double roundHalfAway(double x) noexcept {
  const double t = static_cast<double>(static_cast<std::int64_t>(x));
  const double frac = x - t;
  if (frac >= 0.5) return t + 1.0;
  if (frac <= -0.5) return t - 1.0;
  return t;
}

/// Hex containing a planar point (inverse of hexCenter, with rounding).
/// \p p must be finite and its axial coordinates must fit an int;
/// HexNetwork::cellAt screens positions before calling this.
[[nodiscard]] HexCoord pointToHex(Vec2 p, double cell_radius_km) noexcept;

/// All hexes within \p rings grid hops of the origin, origin first, then by
/// increasing ring; count is hexDiskCellCount(rings).
[[nodiscard]] std::vector<HexCoord> hexDisk(int rings);

/// Number of cells in a hexDisk of \p rings: the centred hexagonal numbers.
[[nodiscard]] constexpr int hexDiskCellCount(int rings) noexcept {
  return 1 + 3 * rings * (rings + 1);
}

}  // namespace facs::cellular
