#pragma once
/// \file radio.hpp
/// A simple radio layer for the cellular substrate: deterministic
/// log-distance path loss and downlink SIR estimation across co-channel
/// cells. This backs the SIR-based admission baseline (`cac::SirController`)
/// — the interference/power-control CAC family the paper's Section 1 cites
/// ([2] Wang et al., [6] Xiao et al.) — and gives examples a physically
/// grounded signal model.
///
/// The interference sum is the hot path (one term per co-channel cell per
/// admission decision), so each of its terms costs a few multiplications
/// and two square roots:
///
///  * **Gain constant.** The log-distance chain
///    `dbToLinear(tx − PL0 − 10·n·log10(d/d0))` factors into `C · d^−n`
///    with `C = dbToLinear(tx − PL0 + 10·n·log10(d0))`, computed once at
///    construction, so no `log10` or `exp10` runs per interferer. Tx power
///    and path loss are network-wide here (reuse-1, uniform sites), so C is
///    a single scalar rather than the per-cell table a heterogeneous
///    deployment would need.
///  * **Closed-form d^−n.** The exponent is fixed at n = 3.5, so
///    `d^−3.5 = 1 / (d² · q · √q)` with `q = √d²`: two IEEE square roots
///    from the squared distance, no `hypot` and no `pow` (see pathGain()).
///  * **Interferer tables.** Built at construction: per serving cell, the
///    ids of every other co-channel cell as one flat SoA walk (ids +
///    station coordinates), in ascending id order — the same summation
///    order as iterating `network.cells()`, so the table walk reproduces
///    the naive loop's floating-point sum exactly.
///
/// Units: distances km, powers dBm, gains/losses dB.

#include <cmath>
#include <cstdint>
#include <vector>

#include "cellular/geometry.hpp"
#include "cellular/network.hpp"
#include "sim/detmath.hpp"

namespace facs::cellular {

/// dB <-> linear helpers (dBm <-> mW alike).
[[nodiscard]] double dbToLinear(double db) noexcept;
[[nodiscard]] inline double linearToDb(double linear) noexcept {
  return 10.0 * detmath::log10(linear);
}

/// The path-loss exponent n (free space = 2, dense urban ~4). It is a
/// constant because pathGain() evaluates d^−n in closed form for this n.
inline constexpr double kPathLossExponent = 3.5;

/// d^−n for n = kPathLossExponent, from the squared distance \p d2 > 0:
/// `1 / (d² · q · √q)` with `q = √d²`. IEEE sqrt is correctly rounded, so
/// the bits depend on no math library. Five roundings put the result
/// within 5.5 ulp of the exact power (4.4 measured; radio_test checks it).
[[nodiscard]] inline double pathGain(double d2) noexcept {
  const double q = std::sqrt(d2);
  return 1.0 / (d2 * q * std::sqrt(q));
}

/// Log-distance path-loss model: PL(d) = PL0 + 10 n log10(d / d0), without
/// shadowing. Defaults describe the rural/suburban macro deployment the
/// paper's 10 km cells imply (a 2 GHz urban profile would leave the edge of
/// such a cell noise-limited and dead):
/// PL0 = 100 dB at 1 km and n = kPathLossExponent, so a 43 dBm site still
/// delivers ~12 dB SNR at the 10 km edge and co-channel neighbours dominate
/// noise.
struct PathLossParams {
  double reference_loss_db = 100.0;  ///< PL0 at d0 (rural macro, sub-GHz-ish).
  double reference_distance_km = 1.0;
  double min_distance_km = 0.01;     ///< Clamp to avoid the d -> 0 pole.
};

/// Deterministic part of the path loss at distance \p d_km.
/// \throws std::invalid_argument for negative distance.
[[nodiscard]] double pathLossDb(const PathLossParams& params, double d_km);

/// Configuration of the downlink radio model.
struct RadioConfig {
  PathLossParams path_loss{};
  double tx_power_dbm = 43.0;      ///< Typical macro BS.
  double noise_floor_dbm = -104.0; ///< Thermal noise over 10 MHz-ish.
  /// Interference activity factor in [0, 1]: fraction of each interfering
  /// cell's power that is actually radiated, scaled by the cell's
  /// bandwidth utilization at evaluation time.
  double activity_factor = 1.0;
};

/// Downlink radio snapshot of one network: every base station transmits at
/// a fixed power on the same channel (reuse-1), and a user's SIR is the
/// serving-cell signal over the sum of all other cells' signals plus
/// thermal noise.
///
/// The gain constant and per-serving-cell interferer tables are derived
/// from the RadioConfig once, at construction; the config is immutable for
/// the model's lifetime, so the tables never go stale.
class RadioModel {
 public:
  using Config = RadioConfig;

  /// \param network not owned; must outlive the model.
  /// \throws std::invalid_argument on nonsensical config.
  RadioModel(const HexNetwork& network, Config config = {});

  /// Downlink SINR (dB) at \p position served by \p serving_cell.
  /// Interference from every other cell is weighted by that cell's current
  /// utilization (an idle cell does not interfere).
  [[nodiscard]] double sinrDb(Vec2 position, CellId serving_cell) const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const HexNetwork& network() const noexcept { return network_; }

 private:
  [[nodiscard]] double linkPowerMw(Vec2 position, CellId cell) const;
  void buildTables();

  const HexNetwork& network_;
  Config config_;

  // Derived once from config_ at construction.
  double gain_const_mw_ = 0.0;    ///< C in power_mw = C * d^-n.
  double min_distance_sq_ = 0.0;  ///< Clamp for the d -> 0 pole, squared.
  double noise_mw_ = 0.0;         ///< dbToLinear(noise_floor_dbm).

  // Flat per-serving-cell interferer tables: for serving cell s, entries
  // [interferer_offsets_[s], interferer_offsets_[s+1]) of interferer_ids_
  // (ascending) and the matching station coordinates (SoA, indexed by the
  // same k — no second indirection through the network in the hot loop).
  std::vector<std::uint32_t> interferer_offsets_;
  std::vector<CellId> interferer_ids_;
  std::vector<double> station_x_;
  std::vector<double> station_y_;
};

}  // namespace facs::cellular
