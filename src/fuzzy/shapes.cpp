#include "fuzzy/shapes.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/detmath.hpp"

namespace facs::fuzzy {

namespace {
void requireFinite(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(std::string{"membership parameter '"} + what +
                                "' must be finite");
  }
}
}  // namespace

Gaussian::Gaussian(double mean, double sigma) : mean_{mean}, sigma_{sigma} {
  requireFinite(mean, "mean");
  requireFinite(sigma, "sigma");
  if (!(sigma_ > 0.0)) {
    throw std::invalid_argument("Gaussian sigma must be positive");
  }
}

double Gaussian::degree(double x) const noexcept {
  const double z = (x - mean_) / sigma_;
  return detmath::exp(-0.5 * z * z);
}

Interval Gaussian::support() const noexcept {
  return {mean_ - 4.0 * sigma_, mean_ + 4.0 * sigma_};
}

std::string Gaussian::describe() const {
  std::ostringstream os;
  os << "gauss(" << mean_ << ", " << sigma_ << ")";
  return os.str();
}

std::unique_ptr<MembershipFunction> Gaussian::clone() const {
  return std::make_unique<Gaussian>(*this);
}

GeneralizedBell::GeneralizedBell(double center, double width, double slope)
    : center_{center}, width_{width}, slope_{slope} {
  requireFinite(center, "center");
  requireFinite(width, "width");
  requireFinite(slope, "slope");
  if (!(width_ > 0.0)) {
    throw std::invalid_argument("bell width must be positive");
  }
  if (!(slope_ > 0.0)) {
    throw std::invalid_argument("bell slope must be positive");
  }
}

double GeneralizedBell::degree(double x) const noexcept {
  const double z = std::abs((x - center_) / width_);
  return 1.0 / (1.0 + detmath::pow(z, 2.0 * slope_));
}

Interval GeneralizedBell::support() const noexcept {
  // Degree drops below ~1e-4 at |z| = 10^(4 / (2 slope)).
  const double reach = width_ * detmath::exp10(2.0 / slope_);
  return {center_ - reach, center_ + reach};
}

std::string GeneralizedBell::describe() const {
  std::ostringstream os;
  os << "bell(" << center_ << ", " << width_ << ", " << slope_ << ")";
  return os.str();
}

std::unique_ptr<MembershipFunction> GeneralizedBell::clone() const {
  return std::make_unique<GeneralizedBell>(*this);
}

Sigmoid::Sigmoid(double inflection, double slope)
    : inflection_{inflection}, slope_{slope} {
  requireFinite(inflection, "inflection");
  requireFinite(slope, "slope");
  if (slope_ == 0.0) {
    throw std::invalid_argument("sigmoid slope must be non-zero");
  }
}

double Sigmoid::degree(double x) const noexcept {
  return 1.0 / (1.0 + detmath::exp(-slope_ * (x - inflection_)));
}

Interval Sigmoid::support() const noexcept {
  // Practically unbounded on the saturated side; report the region where
  // the degree is within (1e-4, 1 - 1e-4) plus the saturated tail.
  const double reach = 9.2103 / std::abs(slope_);  // ln(1e4)
  if (slope_ > 0.0) {
    return {inflection_ - reach, std::numeric_limits<double>::infinity()};
  }
  return {-std::numeric_limits<double>::infinity(), inflection_ + reach};
}

double Sigmoid::peak() const noexcept {
  // The saturated end; finite proxy one reach beyond the inflection.
  const double reach = 9.2103 / std::abs(slope_);
  return slope_ > 0.0 ? inflection_ + reach : inflection_ - reach;
}

std::string Sigmoid::describe() const {
  std::ostringstream os;
  os << "sigmoid(" << inflection_ << ", " << slope_ << ")";
  return os.str();
}

std::unique_ptr<MembershipFunction> Sigmoid::clone() const {
  return std::make_unique<Sigmoid>(*this);
}

std::unique_ptr<MembershipFunction> makeGaussian(double mean, double sigma) {
  return std::make_unique<Gaussian>(mean, sigma);
}

std::unique_ptr<MembershipFunction> makeBell(double center, double width,
                                             double slope) {
  return std::make_unique<GeneralizedBell>(center, width, slope);
}

std::unique_ptr<MembershipFunction> makeSigmoid(double inflection,
                                                double slope) {
  return std::make_unique<Sigmoid>(inflection, slope);
}

}  // namespace facs::fuzzy
