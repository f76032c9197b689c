#pragma once
/// \file norms.hpp
/// Triangular norms and co-norms used for rule conjunction, implication and
/// aggregation. The paper does not name its operators; the default FACS
/// configuration (min / min / max) matches the standard Mamdani controller
/// of the authors' earlier fuzzy-CAC work (Barolli et al., IPSJ 2001).

#include <algorithm>
#include <string_view>

namespace facs::fuzzy {

/// Triangular norms (fuzzy AND / implication).
enum class TNorm {
  Minimum,            ///< min(a, b) — Mamdani clip.
  AlgebraicProduct,   ///< a * b — Larsen scale.
  BoundedDifference,  ///< max(0, a + b - 1) — Lukasiewicz.
};

/// Triangular co-norms (fuzzy OR / aggregation).
enum class SNorm {
  Maximum,       ///< max(a, b).
  AlgebraicSum,  ///< a + b - a*b (probabilistic OR).
  BoundedSum,    ///< min(1, a + b).
};

/// Applies the t-norm to operands in [0, 1]. Inline: inference applies
/// the operators per rule, per term and per corner.
[[nodiscard]] inline double apply(TNorm n, double a, double b) noexcept {
  switch (n) {
    case TNorm::Minimum:
      return std::min(a, b);
    case TNorm::AlgebraicProduct:
      return a * b;
    case TNorm::BoundedDifference:
      return std::max(0.0, a + b - 1.0);
  }
  return std::min(a, b);  // unreachable; keeps -Wreturn-type quiet
}

/// Applies the s-norm to operands in [0, 1].
[[nodiscard]] inline double apply(SNorm n, double a, double b) noexcept {
  switch (n) {
    case SNorm::Maximum:
      return std::max(a, b);
    case SNorm::AlgebraicSum:
      return a + b - a * b;
    case SNorm::BoundedSum:
      return std::min(1.0, a + b);
  }
  return std::max(a, b);
}

[[nodiscard]] std::string_view toString(TNorm n) noexcept;
[[nodiscard]] std::string_view toString(SNorm n) noexcept;

}  // namespace facs::fuzzy
