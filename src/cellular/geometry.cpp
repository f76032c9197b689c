#include "cellular/geometry.hpp"

#include <algorithm>
#include <array>

namespace facs::cellular {

double normalizeAngleDeg(double deg) noexcept {
  // In range already (most headings after a small turn): fmod is exact and
  // would return deg unchanged, so the result is the same without it.
  if (deg > -180.0 && deg <= 180.0) return deg;
  double a = std::fmod(deg, 360.0);
  if (a <= -180.0) a += 360.0;
  if (a > 180.0) a -= 360.0;
  return a;
}

Vec2 headingVector(double heading_deg) noexcept {
  const double rad = degToRad(heading_deg);
  return {std::cos(rad), std::sin(rad)};
}

double bearingDeg(Vec2 from, Vec2 to) noexcept {
  const Vec2 d = to - from;
  if (d.x == 0.0 && d.y == 0.0) return 0.0;
  return radToDeg(std::atan2(d.y, d.x));
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
