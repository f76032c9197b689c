#include "fuzzy/membership.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace facs::fuzzy {

namespace {

void requireFinite(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(std::string{"membership function parameter '"} +
                                what + "' must be finite");
  }
}

}  // namespace

Triangular::Triangular(double center, double left_width, double right_width)
    : center_{center},
      left_{left_width},
      right_{right_width},
      vertices_{{{center - left_width, 0.0},
                 {center, 1.0},
                 {center + right_width, 0.0}}} {
  requireFinite(center, "center");
  requireFinite(left_width, "left_width");
  requireFinite(right_width, "right_width");
  // The support ends are vertices too; finite parameters can still
  // overflow them.
  requireFinite(vertices_.front().x, "center - left_width");
  requireFinite(vertices_.back().x, "center + right_width");
  if (left_ < 0.0 || right_ < 0.0) {
    throw std::invalid_argument("triangular widths must be non-negative");
  }
  if (left_ == 0.0 && right_ == 0.0) {
    throw std::invalid_argument(
        "triangular membership function must have a non-empty support");
  }
}

double Triangular::degree(double x) const noexcept {
  if (x <= center_) {
    if (left_ == 0.0) return x == center_ ? 1.0 : 0.0;
    const double d = (x - center_) / left_ + 1.0;
    return d > 0.0 ? d : 0.0;
  }
  if (right_ == 0.0) return 0.0;
  const double d = (center_ - x) / right_ + 1.0;
  return d > 0.0 ? d : 0.0;
}

Interval Triangular::support() const noexcept {
  return {center_ - left_, center_ + right_};
}

std::string Triangular::describe() const {
  std::ostringstream os;
  os << "tri(" << center_ << ", " << left_ << ", " << right_ << ")";
  return os.str();
}

std::unique_ptr<MembershipFunction> Triangular::clone() const {
  return std::make_unique<Triangular>(*this);
}

Trapezoidal::Trapezoidal(double plateau_lo, double plateau_hi,
                         double left_width, double right_width)
    : plateau_lo_{plateau_lo},
      plateau_hi_{plateau_hi},
      left_{left_width},
      right_{right_width},
      vertices_{{{plateau_lo - left_width, 0.0},
                 {plateau_lo, 1.0},
                 {plateau_hi, 1.0},
                 {plateau_hi + right_width, 0.0}}} {
  requireFinite(plateau_lo, "plateau_lo");
  requireFinite(plateau_hi, "plateau_hi");
  requireFinite(left_width, "left_width");
  requireFinite(right_width, "right_width");
  requireFinite(vertices_.front().x, "plateau_lo - left_width");
  requireFinite(vertices_.back().x, "plateau_hi + right_width");
  if (plateau_hi_ < plateau_lo_) {
    throw std::invalid_argument("trapezoid plateau is inverted (x1 < x0)");
  }
  if (left_ < 0.0 || right_ < 0.0) {
    throw std::invalid_argument("trapezoid widths must be non-negative");
  }
}

double Trapezoidal::degree(double x) const noexcept {
  if (x >= plateau_lo_ && x <= plateau_hi_) return 1.0;
  if (x < plateau_lo_) {
    if (left_ == 0.0) return 0.0;
    const double d = (x - plateau_lo_) / left_ + 1.0;
    return d > 0.0 ? d : 0.0;
  }
  if (right_ == 0.0) return 0.0;
  const double d = (plateau_hi_ - x) / right_ + 1.0;
  return d > 0.0 ? d : 0.0;
}

Interval Trapezoidal::support() const noexcept {
  return {plateau_lo_ - left_, plateau_hi_ + right_};
}

std::string Trapezoidal::describe() const {
  std::ostringstream os;
  os << "trap(" << plateau_lo_ << ", " << plateau_hi_ << ", " << left_ << ", "
     << right_ << ")";
  return os.str();
}

std::unique_ptr<MembershipFunction> Trapezoidal::clone() const {
  return std::make_unique<Trapezoidal>(*this);
}

std::unique_ptr<MembershipFunction> makeTriangle(double x0, double a0,
                                                 double a1) {
  return std::make_unique<Triangular>(x0, a0, a1);
}

std::unique_ptr<MembershipFunction> makeTrapezoid(double x0, double x1,
                                                  double a0, double a1) {
  return std::make_unique<Trapezoidal>(x0, x1, a0, a1);
}

}  // namespace facs::fuzzy
