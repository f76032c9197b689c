#pragma once
/// \file network.hpp
/// A hexagonal cellular layout: cells, their base stations and adjacency.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cellular/basestation.hpp"
#include "cellular/geometry.hpp"

namespace facs::cellular {

/// Per-cell deviation from the network's uniform base-station capacity
/// (heterogeneous deployments: a stadium mast with extra carriers next to
/// thin precinct cells). Scenario files spell these as `[cell N]` sections.
using CellCapacityOverride = std::pair<CellId, BandwidthUnits>;

/// One cell of the network.
struct Cell {
  CellId id = 0;
  HexCoord coord{};
  Vec2 center{};
};

/// A hexagonal disk of cells around a centre cell, each with its own base
/// station. The paper's evaluation uses a single BS (rings = 0, 40 BU,
/// 10 km radius); multi-ring networks support the SCC baseline and the
/// handoff experiments.
class HexNetwork {
 public:
  /// \param rings        number of rings around the centre cell (>= 0).
  /// \param cell_radius_km hex circumradius; the paper's user-to-BS
  ///                      distances span 0-10 km, so the default is 10.
  /// \param capacity_bu  per-BS capacity (paper: 40 BU).
  /// \param capacity_overrides per-cell capacities replacing the uniform
  ///                      \p capacity_bu for the named cells.
  /// \throws std::invalid_argument on negative rings, non-positive radius,
  ///         an override naming a cell outside the disk, a duplicate
  ///         override or a non-positive override capacity.
  HexNetwork(int rings, double cell_radius_km = 10.0,
             BandwidthUnits capacity_bu = kPaperCellCapacityBu,
             const std::vector<CellCapacityOverride>& capacity_overrides = {});

  [[nodiscard]] std::size_t cellCount() const noexcept { return cells_.size(); }
  [[nodiscard]] double cellRadiusKm() const noexcept { return cell_radius_km_; }
  [[nodiscard]] const Cell& cell(CellId id) const { return cells_.at(id); }
  [[nodiscard]] const std::vector<Cell>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] BaseStation& station(CellId id) { return stations_.at(id); }
  [[nodiscard]] const BaseStation& station(CellId id) const {
    return stations_.at(id);
  }

  /// Cell containing a planar point, if any cell of the disk does. O(1):
  /// one axial rounding and one lookup in a dense index. Non-finite points
  /// are outside every cell.
  [[nodiscard]] std::optional<CellId> cellAt(Vec2 position) const;

  /// How many further moves, each at most \p step_km long in any direction,
  /// provably keep a point now at \p position inside cell \p id: the moves
  /// that cannot leave the cell's inscribed circle (radius R * sqrt(3) / 2),
  /// so cellAt() answers \p id after every one of them. Margins of 1e-9 on
  /// the radius and the step, plus 1e-9 radii per move, absorb the rounding
  /// of the distance and of each position update. 0 when the point is not
  /// inside the circle; finite for a parked user (about 1e9 at the centre).
  [[nodiscard]] std::uint32_t movesInside(CellId id, Vec2 position,
                                          double step_km) const;

  /// Ids of in-network neighbours of a cell (up to 6).
  [[nodiscard]] const std::vector<CellId>& neighbors(CellId id) const {
    return neighbors_.at(id);
  }

  /// Straight-line distance from a point to a cell's base station.
  [[nodiscard]] double distanceToStationKm(Vec2 position, CellId id) const {
    return position.distanceTo(cell(id).center);
  }

  /// Total occupied and total capacity over all stations.
  [[nodiscard]] BandwidthUnits totalOccupiedBu() const noexcept;
  [[nodiscard]] BandwidthUnits totalCapacityBu() const noexcept;

 private:
  static constexpr CellId kNoCell = static_cast<CellId>(-1);

  /// Slot of \p h in index_; \p h must lie in the axial box.
  [[nodiscard]] std::size_t indexOf(HexCoord h) const noexcept;
  /// Cell at axial coordinate \p h, if the disk has one.
  [[nodiscard]] std::optional<CellId> cellOf(HexCoord h) const noexcept;

  double cell_radius_km_;
  int rings_;
  /// Half-width of the square outside which cellAt answers nullopt without
  /// rounding (see the constructor).
  double extent_km_;
  /// Cell id per (q, r) of the (2 * rings + 1)^2 axial box, kNoCell where
  /// the box holds no disk cell.
  std::vector<CellId> index_;
  std::vector<Cell> cells_;
  std::vector<BaseStation> stations_;
  std::vector<std::vector<CellId>> neighbors_;
};

/// Deterministic partition of a network's cells into commit groups — the
/// cell-to-lane mapping of the simulator's two-level commit scheme (and, in
/// the paper's terms, the assignment of base stations to coordination
/// domains that exchange inter-BS handoff messages).
///
/// Cells are split into contiguous id ranges. Spiral hex ids make
/// contiguous ranges spatially coherent (whole rings and arcs), so most
/// neighbours land in the same group and most handoffs stay group-local.
/// Two balance criteria share that shape:
///
///  * **Unweighted** (the historical default): near-equal range SIZES —
///    cell c belongs to floor(c * groups / cells). A pure function of
///    (cell count, groups).
///  * **Weighted**: near-equal range WEIGHTS. Given one non-negative load
///    weight per cell (spawn rates, observed commit traffic), boundaries
///    are placed by a greedy cumulative-weight walk so every group carries
///    about total/groups weight — a hotspot cell stops dragging its whole
///    id range into one overloaded lane. A pure function of (weights,
///    groups): still independent of shard count and thread timing.
class CellGroupPartition {
 public:
  /// \param groups requested group count; clamped to [1, cellCount] so a
  ///        partition always exists (empty groups are pointless).
  CellGroupPartition(const HexNetwork& network, int groups);

  /// Weighted variant: contiguous ranges of near-equal total weight.
  /// Deterministic for fixed (weights, groups); every group is non-empty.
  /// \param weights one non-negative finite weight per cell; an all-zero
  ///        vector degrades to uniform weights.
  /// \throws std::invalid_argument on a size mismatch or a negative /
  ///         non-finite weight.
  CellGroupPartition(const HexNetwork& network, int groups,
                     const std::vector<double>& weights);

  /// Effective group count after clamping.
  [[nodiscard]] int groups() const noexcept { return groups_; }

  [[nodiscard]] int groupOf(CellId cell) const {
    return group_of_.at(static_cast<std::size_t>(cell));
  }

 private:
  int groups_;
  std::vector<int> group_of_;
};

}  // namespace facs::cellular
