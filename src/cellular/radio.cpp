#include "cellular/radio.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace facs::cellular {

double dbToLinear(double db) noexcept { return detmath::exp10(db / 10.0); }

double pathLossDb(const PathLossParams& params, double d_km) {
  if (d_km < 0.0) {
    throw std::invalid_argument("path-loss distance must be >= 0");
  }
  const double d = std::max(d_km, params.min_distance_km);
  return params.reference_loss_db +
         10.0 * kPathLossExponent *
             detmath::log10(d / params.reference_distance_km);
}

RadioModel::RadioModel(const HexNetwork& network, Config config)
    : network_{network}, config_{config} {
  if (config_.activity_factor < 0.0 || config_.activity_factor > 1.0) {
    throw std::invalid_argument("activity factor must be in [0, 1]");
  }
  if (!(config_.path_loss.min_distance_km > 0.0)) {
    throw std::invalid_argument("minimum path-loss distance must be positive");
  }
  buildTables();
}

void RadioModel::buildTables() {
  const PathLossParams& pl = config_.path_loss;
  // PL(d) = PL0 + 10 n log10(d/d0)  =>  rx_dbm = tx - PL0 + 10 n log10(d0)
  // - 10 n log10(d), so in linear mW: rx = C * d^-n with the constant below.
  gain_const_mw_ =
      dbToLinear(config_.tx_power_dbm - pl.reference_loss_db +
                 10.0 * kPathLossExponent *
                     detmath::log10(pl.reference_distance_km));
  min_distance_sq_ = pl.min_distance_km * pl.min_distance_km;
  noise_mw_ = dbToLinear(config_.noise_floor_dbm);

  const std::size_t cells = network_.cellCount();
  interferer_offsets_.assign(cells + 1, 0);
  interferer_ids_.clear();
  station_x_.clear();
  station_y_.clear();
  interferer_ids_.reserve(cells * (cells - (cells > 0 ? 1 : 0)));

  for (const Cell& serving : network_.cells()) {
    interferer_offsets_[serving.id] =
        static_cast<std::uint32_t>(interferer_ids_.size());
    for (const Cell& other : network_.cells()) {
      if (other.id == serving.id) continue;
      interferer_ids_.push_back(other.id);
      station_x_.push_back(other.center.x);
      station_y_.push_back(other.center.y);
    }
  }
  interferer_offsets_[cells] =
      static_cast<std::uint32_t>(interferer_ids_.size());
}

double RadioModel::linkPowerMw(Vec2 position, CellId cell) const {
  const double dx = position.x - network_.cell(cell).center.x;
  const double dy = position.y - network_.cell(cell).center.y;
  const double d2 = std::max(dx * dx + dy * dy, min_distance_sq_);
  return gain_const_mw_ * pathGain(d2);
}

double RadioModel::sinrDb(Vec2 position, CellId serving_cell) const {
  const double signal_mw = linkPowerMw(position, serving_cell);
  double interference_mw = noise_mw_;
  const std::uint32_t begin = interferer_offsets_[serving_cell];
  const std::uint32_t end = interferer_offsets_[serving_cell + 1];
  for (std::uint32_t k = begin; k != end; ++k) {
    const double activity =
        config_.activity_factor *
        network_.station(interferer_ids_[k]).utilization();
    if (activity <= 0.0) continue;
    const double dx = position.x - station_x_[k];
    const double dy = position.y - station_y_[k];
    const double d2 = std::max(dx * dx + dy * dy, min_distance_sq_);
    interference_mw += activity * gain_const_mw_ * pathGain(d2);
  }
  return linearToDb(signal_mw / interference_mw);
}

}  // namespace facs::cellular
