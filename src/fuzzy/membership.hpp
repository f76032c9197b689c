#pragma once
/// \file membership.hpp
/// Membership-function shapes used by the fuzzy inference engine.
///
/// The paper (Barolli et al., ICDCSW'07, Section 3, Fig. 3) uses exactly two
/// shapes, chosen "because they are suitable for real-time operation":
///
///   triangular   f(x; x0, a0, a1)      — centre x0, left width a0, right a1
///   trapezoidal  g(x; x0, x1, a0, a1)  — plateau [x0, x1], widths a0 / a1
///
/// Both are represented here with the paper's parameterisation so that the
/// FLC definitions in src/core can be read side-by-side with the paper.

#include <array>
#include <memory>
#include <span>
#include <string>
#include <utility>

namespace facs::fuzzy {

/// Closed interval on the real line. Used for membership-function supports
/// and linguistic-variable universes.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  [[nodiscard]] constexpr double width() const noexcept { return hi - lo; }
  [[nodiscard]] constexpr bool contains(double x) const noexcept {
    return x >= lo && x <= hi;
  }
  [[nodiscard]] constexpr double clamp(double x) const noexcept {
    if (x < lo) return lo;
    if (x > hi) return hi;
    return x;
  }
  friend constexpr bool operator==(const Interval&, const Interval&) = default;
};

/// A corner of a piecewise-linear membership curve.
struct Vertex {
  double x = 0.0;
  double mu = 0.0;
  friend constexpr bool operator==(const Vertex&, const Vertex&) = default;
};

/// Abstract membership function mu : R -> [0, 1].
///
/// Concrete shapes are immutable after construction; the class is cloneable
/// so that terms and variables have value semantics.
class MembershipFunction {
 public:
  virtual ~MembershipFunction() = default;

  /// Degree of membership of \p x, always within [0, 1].
  [[nodiscard]] virtual double degree(double x) const noexcept = 0;

  /// Smallest closed interval outside of which degree() is zero.
  [[nodiscard]] virtual Interval support() const noexcept = 0;

  /// Representative crisp value of the term (peak / plateau midpoint).
  /// Used by maximum-based and weighted-average defuzzifiers.
  [[nodiscard]] virtual double peak() const noexcept = 0;

  /// Human-readable description, e.g. "tri(30, 15, 30)".
  [[nodiscard]] virtual std::string describe() const = 0;

  [[nodiscard]] virtual std::unique_ptr<MembershipFunction> clone() const = 0;

  /// Corners of the piecewise-linear curve, in ascending x: degree() is the
  /// linear interpolation between consecutive vertices and zero outside
  /// [front().x, back().x]. Two vertices at the same x are a vertical edge
  /// (a zero-width side).
  [[nodiscard]] virtual std::span<const Vertex> vertices() const noexcept = 0;

 protected:
  MembershipFunction() = default;
  MembershipFunction(const MembershipFunction&) = default;
  MembershipFunction& operator=(const MembershipFunction&) = default;
};

/// Triangular membership function, the paper's f(x; x0, a0, a1):
///
///   f = (x - x0)/a0 + 1   for x0 - a0 < x <= x0
///   f = (x0 - x)/a1 + 1   for x0 < x <= x0 + a1
///   f = 0                 otherwise
///
/// A zero width degenerates that side into a vertical edge (crisp shoulder),
/// which the paper uses for terms anchored at the universe boundary.
class Triangular final : public MembershipFunction {
 public:
  /// \param center     x0 — the apex, where degree == 1.
  /// \param left_width a0 >= 0 — distance from apex to the left zero-crossing.
  /// \param right_width a1 >= 0 — distance from apex to the right zero-crossing.
  /// \throws std::invalid_argument if a width is negative, both are zero, or
  ///         any parameter is non-finite.
  Triangular(double center, double left_width, double right_width);

  [[nodiscard]] double degree(double x) const noexcept override;
  [[nodiscard]] Interval support() const noexcept override;
  [[nodiscard]] double peak() const noexcept override { return center_; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<MembershipFunction> clone() const override;

  /// (x0 - a0, 0), (x0, 1), (x0 + a1, 0).
  [[nodiscard]] std::span<const Vertex> vertices() const noexcept override {
    return vertices_;
  }

  [[nodiscard]] double center() const noexcept { return center_; }
  [[nodiscard]] double leftWidth() const noexcept { return left_; }
  [[nodiscard]] double rightWidth() const noexcept { return right_; }

 private:
  double center_;
  double left_;
  double right_;
  std::array<Vertex, 3> vertices_;
};

/// Trapezoidal membership function, the paper's g(x; x0, x1, a0, a1):
///
///   g = (x - x0)/a0 + 1   for x0 - a0 < x <= x0
///   g = 1                 for x0 < x <= x1
///   g = (x1 - x)/a1 + 1   for x1 < x <= x1 + a1
///   g = 0                 otherwise
///
/// With a zero-width side this acts as a left/right shoulder.
class Trapezoidal final : public MembershipFunction {
 public:
  /// \param plateau_lo x0 — left edge of the plateau (degree == 1 region).
  /// \param plateau_hi x1 >= x0 — right edge of the plateau.
  /// \param left_width a0 >= 0, \param right_width a1 >= 0.
  /// \throws std::invalid_argument on inverted plateau, negative width, or
  ///         non-finite parameters.
  Trapezoidal(double plateau_lo, double plateau_hi, double left_width,
              double right_width);

  [[nodiscard]] double degree(double x) const noexcept override;
  [[nodiscard]] Interval support() const noexcept override;
  [[nodiscard]] double peak() const noexcept override {
    return 0.5 * (plateau_lo_ + plateau_hi_);
  }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<MembershipFunction> clone() const override;

  /// (x0 - a0, 0), (x0, 1), (x1, 1), (x1 + a1, 0).
  [[nodiscard]] std::span<const Vertex> vertices() const noexcept override {
    return vertices_;
  }

  [[nodiscard]] double plateauLo() const noexcept { return plateau_lo_; }
  [[nodiscard]] double plateauHi() const noexcept { return plateau_hi_; }
  [[nodiscard]] double leftWidth() const noexcept { return left_; }
  [[nodiscard]] double rightWidth() const noexcept { return right_; }

 private:
  double plateau_lo_;
  double plateau_hi_;
  double left_;
  double right_;
  std::array<Vertex, 4> vertices_;
};

/// Convenience factories mirroring the paper's notation.
[[nodiscard]] std::unique_ptr<MembershipFunction> makeTriangle(
    double x0, double a0, double a1);
[[nodiscard]] std::unique_ptr<MembershipFunction> makeTrapezoid(
    double x0, double x1, double a0, double a1);

}  // namespace facs::fuzzy
