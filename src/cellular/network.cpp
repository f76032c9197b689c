#include "cellular/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace facs::cellular {

HexNetwork::HexNetwork(int rings, double cell_radius_km,
                       BandwidthUnits capacity_bu,
                       const std::vector<CellCapacityOverride>& capacity_overrides)
    : cell_radius_km_{cell_radius_km},
      rings_{rings},
      // Every point of the disk lies within sqrt(3) * rings + 1 radii of the
      // origin; 2 * rings + 2 leaves a full radius of margin, so anything
      // past it rounds to a hex outside the disk anyway.
      extent_km_{(2.0 * rings + 2.0) * cell_radius_km} {
  if (rings < 0) throw std::invalid_argument("rings must be >= 0");
  if (!(cell_radius_km > 0.0)) {
    throw std::invalid_argument("cell radius must be positive");
  }

  const std::vector<HexCoord> coords = hexDisk(rings);
  std::vector<BandwidthUnits> capacities(coords.size(), capacity_bu);
  std::vector<bool> overridden(coords.size(), false);
  for (const auto& [cell, bu] : capacity_overrides) {
    if (static_cast<std::size_t>(cell) >= coords.size()) {
      throw std::invalid_argument(
          "capacity override for cell " + std::to_string(cell) +
          " outside the " + std::to_string(coords.size()) + "-cell disk");
    }
    if (overridden[cell]) {
      throw std::invalid_argument("duplicate capacity override for cell " +
                                  std::to_string(cell));
    }
    if (bu <= 0) {
      throw std::invalid_argument("capacity override for cell " +
                                  std::to_string(cell) + " must be positive");
    }
    capacities[cell] = bu;
    overridden[cell] = true;
  }

  const auto side = static_cast<std::size_t>(2 * rings + 1);
  index_.assign(side * side, kNoCell);
  cells_.reserve(coords.size());
  stations_.reserve(coords.size());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const auto id = static_cast<CellId>(i);
    cells_.push_back({id, coords[i], hexCenter(coords[i], cell_radius_km_)});
    stations_.emplace_back(id, capacities[i]);
    index_[indexOf(coords[i])] = id;
  }

  neighbors_.resize(cells_.size());
  for (const Cell& c : cells_) {
    for (const HexCoord& n : hexNeighbors(c.coord)) {
      if (const auto id = cellOf(n)) neighbors_[c.id].push_back(*id);
    }
  }
}

std::size_t HexNetwork::indexOf(HexCoord h) const noexcept {
  const auto side = static_cast<std::size_t>(2 * rings_ + 1);
  return static_cast<std::size_t>(h.q + rings_) * side +
         static_cast<std::size_t>(h.r + rings_);
}

std::optional<CellId> HexNetwork::cellOf(HexCoord h) const noexcept {
  // The disk fits the (2 * rings + 1)^2 axial box; the box's corners hold
  // kNoCell.
  if (h.q < -rings_ || h.q > rings_ || h.r < -rings_ || h.r > rings_) {
    return std::nullopt;
  }
  const CellId id = index_[indexOf(h)];
  if (id == kNoCell) return std::nullopt;
  return id;
}

std::optional<CellId> HexNetwork::cellAt(Vec2 position) const {
  // Refuse non-finite and far-out points before pointToHex casts their
  // rounded axial coordinates to int (undefined for NaN or out of range).
  if (!(std::abs(position.x) <= extent_km_ &&
        std::abs(position.y) <= extent_km_)) {
    return std::nullopt;
  }
  return cellOf(pointToHex(position, cell_radius_km_));
}

std::uint32_t HexNetwork::movesInside(CellId id, Vec2 position,
                                      double step_km) const {
  constexpr double kEps = 1e-9;
  const double inscribed = cell_radius_km_ * (std::numbers::sqrt3 / 2.0);
  const Vec2 d = position - cell(id).center;
  const double room =
      inscribed * (1.0 - kEps) - std::sqrt(d.x * d.x + d.y * d.y);
  const double moves =
      std::floor(room / (step_km * (1.0 + kEps) + kEps * inscribed));
  if (!(moves > 0.0)) return 0;
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  return moves < kMax ? static_cast<std::uint32_t>(moves) : kMax;
}

BandwidthUnits HexNetwork::totalOccupiedBu() const noexcept {
  BandwidthUnits total = 0;
  for (const BaseStation& s : stations_) total += s.occupiedBu();
  return total;
}

BandwidthUnits HexNetwork::totalCapacityBu() const noexcept {
  BandwidthUnits total = 0;
  for (const BaseStation& s : stations_) total += s.capacityBu();
  return total;
}

CellGroupPartition::CellGroupPartition(const HexNetwork& network, int groups) {
  const std::size_t cells = network.cellCount();
  if (groups < 1) throw std::invalid_argument("commit groups must be >= 1");
  groups_ = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(groups), cells));

  // Contiguous balanced ranges: cell c belongs to floor(c * G / cells).
  // Monotone in c, every group non-empty, sizes differ by at most one.
  group_of_.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    group_of_[c] = static_cast<int>((c * static_cast<std::size_t>(groups_)) /
                                    cells);
  }
}

CellGroupPartition::CellGroupPartition(const HexNetwork& network, int groups,
                                       const std::vector<double>& weights) {
  const std::size_t cells = network.cellCount();
  if (groups < 1) throw std::invalid_argument("commit groups must be >= 1");
  if (weights.size() != cells) {
    throw std::invalid_argument("partition weights must name every cell");
  }
  double total = 0.0;
  for (const double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument(
          "partition weights must be non-negative and finite");
    }
    total += w;
  }
  groups_ = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(groups), cells));

  // Greedy cumulative-weight walk: close the current group once it has
  // absorbed its fair share of the REMAINING weight (remaining weight over
  // remaining groups — self-correcting, so one huge cell overshooting its
  // group does not starve the rest), while always leaving at least one
  // cell per group still to open. All-zero weights degrade to the uniform
  // walk (every cell weighs 1). Boundaries are monotone in cell id, so the
  // ranges stay contiguous and spatially coherent under the spiral layout.
  group_of_.assign(cells, 0);
  const bool uniform = !(total > 0.0);
  double remaining = uniform ? static_cast<double>(cells) : total;
  int g = 0;
  double acc = 0.0;
  for (std::size_t c = 0; c < cells; ++c) {
    group_of_[c] = g;
    const double w = uniform ? 1.0 : weights[c];
    acc += w;
    remaining -= w;
    const std::size_t cells_left = cells - c - 1;
    const std::size_t groups_left =
        static_cast<std::size_t>(groups_ - g - 1);
    if (groups_left == 0) continue;  // last group takes the tail
    const double target =
        (acc + remaining) / static_cast<double>(groups_left + 1);
    // Close on reaching the fair share — or when the tail has exactly one
    // cell per unopened group left (no group may end up empty).
    if (acc >= target || cells_left == groups_left) {
      ++g;
      acc = 0.0;
    }
  }
}

}  // namespace facs::cellular
