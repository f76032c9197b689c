#include "cellular/traffic.hpp"

#include <cmath>
#include <stdexcept>

namespace facs::cellular {

std::string_view toString(ServiceClass c) noexcept {
  switch (c) {
    case ServiceClass::Text:
      return "text";
    case ServiceClass::Voice:
      return "voice";
    case ServiceClass::Video:
      return "video";
  }
  return "text";
}

const ServiceProfile& profileFor(ServiceClass c) noexcept {
  static const std::array<ServiceProfile, kServiceClassCount> kProfiles{{
      {ServiceClass::Text, 1, /*real_time=*/false, /*mean_holding_s=*/120.0},
      {ServiceClass::Voice, 5, /*real_time=*/true, /*mean_holding_s=*/180.0},
      {ServiceClass::Video, 10, /*real_time=*/true, /*mean_holding_s=*/300.0},
  }};
  return kProfiles[static_cast<std::size_t>(c)];
}

TrafficMix::TrafficMix(double text_fraction, double voice_fraction,
                       double video_fraction)
    : fractions_{text_fraction, voice_fraction, video_fraction} {
  double sum = 0.0;
  for (const double f : fractions_) {
    if (f < 0.0 || !std::isfinite(f)) {
      throw std::invalid_argument("traffic mix fractions must be >= 0");
    }
    sum += f;
  }
  if (std::abs(sum - 1.0) > 1e-9) {
    throw std::invalid_argument("traffic mix fractions must sum to 1");
  }
}

double TrafficMix::meanDemandBu() const noexcept {
  double mean = 0.0;
  for (std::size_t i = 0; i < kServiceClassCount; ++i) {
    mean += fractions_[i] *
            profileFor(static_cast<ServiceClass>(i)).demand_bu;
  }
  return mean;
}

ServiceClass TrafficMix::sample(sim::Rng& rng) const {
  const double x = rng.uniform01();
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kServiceClassCount; ++i) {
    cumulative += fractions_[i];
    if (x < cumulative) return static_cast<ServiceClass>(i);
  }
  return ServiceClass::Video;  // guard against rounding at x ~= 1
}

}  // namespace facs::cellular
