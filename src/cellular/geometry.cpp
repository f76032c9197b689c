#include "cellular/geometry.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

namespace facs::cellular {

namespace {

/// deg minus a multiple of 360, exactly, in [-360, 360]; NaN if deg is
/// not finite.
double reduce360(double deg) noexcept {
  if (deg > -0x1p52 && deg < 0x1p52) {
    // deg - 360 q for the q nearest deg / 360 is exact (Sterbenz).
    return deg - 360.0 * roundHalfAway(deg * (1.0 / 360.0));
  }
  if (!(deg - deg == 0.0)) return deg - deg;  // inf or NaN: NaN
  // |deg| >= 2^52 is the integer m 2^e (m < 2^53, e >= 0): reduce it
  // modulo 360 in integer arithmetic.
  const auto bits = std::bit_cast<std::uint64_t>(deg);
  const int e = static_cast<int>((bits >> 52) & 0x7FF) - 1075;
  std::uint64_t r = ((bits & 0x000FFFFFFFFFFFFFULL) | (1ULL << 52)) % 360;
  for (int i = 0; i < e; ++i) r = 2 * r % 360;
  return deg < 0.0 ? -static_cast<double>(r) : static_cast<double>(r);
}

}  // namespace

double normalizeAngleDeg(double deg) noexcept {
  if (deg > -180.0 && deg <= 180.0) return deg;  // most headings
  // The reduction and the one fix-up below are exact, so this is fmod's
  // exact remainder, folded into (-180, 180].
  double a = reduce360(deg);
  if (a <= -180.0) a += 360.0;
  if (a > 180.0) a -= 360.0;
  return a;
}

Vec2 headingVector(double heading_deg) noexcept {
  const detmath::SinCos sc = detmath::sincosDeg(heading_deg);
  return {sc.cos, sc.sin};
}

double bearingDeg(Vec2 from, Vec2 to) noexcept {
  const Vec2 d = to - from;
  if (d.x == 0.0 && d.y == 0.0) return 0.0;
  return radToDeg(detmath::atan2(d.y, d.x));
}

double headingDeviationDeg(double heading_deg, Vec2 from,
                           Vec2 target) noexcept {
  return normalizeAngleDeg(heading_deg - bearingDeg(from, target));
}

namespace {
constexpr std::array<HexCoord, 6> kNeighborOffsets{{
    {+1, 0}, {+1, -1}, {0, -1}, {-1, 0}, {-1, +1}, {0, +1}}};
}  // namespace

int hexDistance(HexCoord a, HexCoord b) noexcept {
  const int dq = a.q - b.q;
  const int dr = a.r - b.r;
  const int ds = hexS(a) - hexS(b);
  return (std::abs(dq) + std::abs(dr) + std::abs(ds)) / 2;
}

std::vector<HexCoord> hexNeighbors(HexCoord h) {
  std::vector<HexCoord> out;
  out.reserve(kNeighborOffsets.size());
  for (const HexCoord& o : kNeighborOffsets) {
    out.push_back({h.q + o.q, h.r + o.r});
  }
  return out;
}

Vec2 hexCenter(HexCoord h, double cell_radius_km) noexcept {
  // Pointy-top axial -> pixel (Red Blob Games convention).
  const double sqrt3 = std::sqrt(3.0);
  return {cell_radius_km * (sqrt3 * h.q + sqrt3 / 2.0 * h.r),
          cell_radius_km * (1.5 * h.r)};
}

HexCoord pointToHex(Vec2 p, double cell_radius_km) noexcept {
  const double sqrt3 = std::sqrt(3.0);
  const double qf = (sqrt3 / 3.0 * p.x - 1.0 / 3.0 * p.y) / cell_radius_km;
  const double rf = (2.0 / 3.0 * p.y) / cell_radius_km;
  const double sf = -qf - rf;

  // Cube rounding.
  double q = roundHalfAway(qf);
  double r = roundHalfAway(rf);
  double s = roundHalfAway(sf);
  const double dq = std::abs(q - qf);
  const double dr = std::abs(r - rf);
  const double ds = std::abs(s - sf);
  if (dq > dr && dq > ds) {
    q = -r - s;
  } else if (dr > ds) {
    r = -q - s;
  }
  return {static_cast<int>(q), static_cast<int>(r)};
}

std::vector<HexCoord> hexDisk(int rings) {
  std::vector<HexCoord> out;
  if (rings < 0) return out;
  out.push_back({0, 0});
  for (int ring = 1; ring <= rings; ++ring) {
    // Start at the "W * ring" corner and walk the six sides.
    HexCoord h{-ring, ring};
    for (const HexCoord& dir : kNeighborOffsets) {
      for (int step = 0; step < ring; ++step) {
        out.push_back(h);
        h = {h.q + dir.q, h.r + dir.r};
      }
    }
  }
  return out;
}

}  // namespace facs::cellular
