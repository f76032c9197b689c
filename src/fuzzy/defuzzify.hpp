#pragma once
/// \file defuzzify.hpp
/// Defuzzification of an aggregated output fuzzy set into a crisp value.

#include <span>
#include <string_view>
#include <vector>

#include "fuzzy/membership.hpp"
#include "fuzzy/norms.hpp"

namespace facs::fuzzy {

/// Defuzzification strategies. Centroid is the FACS default (the standard
/// choice for Mamdani admission controllers of the paper's era); the rest
/// are provided for the design-ablation benchmarks.
enum class Defuzzifier {
  Centroid,       ///< Centre of gravity of the aggregated set.
  Bisector,       ///< Vertical line splitting the area in half.
  MeanOfMax,      ///< Mean of the maximizing interval(s).
  SmallestOfMax,  ///< Leftmost maximizing point.
  LargestOfMax,   ///< Rightmost maximizing point.
};

/// Defuzzifies a piecewise-linear curve in closed form. \p curve lists the
/// curve's corners in ascending x over the whole universe (front().x and
/// back().x are its ends); the curve is linear between consecutive corners,
/// and two corners at the same x are a vertical edge. Centroid integrates
/// x*mu and mu exactly per piece, bisector solves the piece's quadratic for
/// the half-area point, and the max family takes the set where mu reaches
/// the peak: the corners within 1e-9 of it and the pieces lying wholly
/// within 1e-9 of it, so a sharp apex is a point. Mean of max is the
/// length-weighted mean of those pieces, or the mean of the points where
/// there is none; smallest and largest of max are the set's ends. An
/// area (max family: a peak) below 1e-12 returns the universe midpoint —
/// a neutral value by construction of the FACS output variables (A/R = 0
/// is "not reject, not accept").
///
/// \throws std::invalid_argument on fewer than 2 corners or a universe that
///         is empty or runs backwards.
[[nodiscard]] double defuzzifyPiecewise(Defuzzifier method,
                                        std::span<const Vertex> curve);

/// The aggregated output curve of a Mamdani engine, built exactly from its
/// active output terms and defuzzified without sampling:
/// - Implication keeps each term piecewise linear: min clips it at the
///   activation a, product scales its corners by a, and Lukasiewicz
///   (max(0, mu + a - 1)) bends where a side crosses 1 - a.
/// - Max and bounded sum keep the curve piecewise linear, with a corner
///   where two terms cross (max) or their sum crosses 1 (bounded sum).
/// - Probabilistic OR, mu = 1 - prod(1 - f_i), is a polynomial between
///   consecutive corners, of degree the number of terms alive there, kept
///   as Bernstein coefficients. Centroid integrates it; bisector bisects
///   the rising area inside the piece holding the half-area point. mu is
///   quasiconvex on a piece (prod(1 - f_i) is log-concave), so its peak is
///   a corner; the max family keeps defuzzifyPiecewise()'s set, a bent
///   piece counting whole when its coefficients, which bound it, all lie
///   within 1e-9 of the peak.
/// Every buffer is reused across clear(), so warm use allocates nothing.
class PiecewiseEnvelope {
 public:
  /// Forgets every added term; keeps the buffers.
  void clear() noexcept;

  /// Adds the term with corners \p polyline (ascending x, as reported by
  /// MembershipFunction::vertices()) implied by \p activation:
  /// mu(x) = apply(implication, activation, term(x)).
  void add(TNorm implication, std::span<const Vertex> polyline,
           double activation);

  /// Aggregates the added terms over \p universe (zero where none is
  /// positive) and defuzzifies the result exactly.
  [[nodiscard]] double defuzzify(SNorm aggregation, Defuzzifier method,
                                 Interval universe);

  /// The corners of the curve the last defuzzify() built, in
  /// defuzzifyPiecewise()'s format. Under probabilistic OR a piece of
  /// more than one live term bends between its corners.
  [[nodiscard]] std::span<const Vertex> curve() const noexcept {
    return curve_;
  }

 private:
  /// Added term \p t's implied corners.
  [[nodiscard]] std::span<const Vertex> term(std::size_t t) const;
  void buildEnvelope(SNorm aggregation, Interval universe);
  void buildProbor(Interval universe);

  std::vector<Vertex> implied_;     ///< Implied terms, back to back.
  std::vector<std::size_t> ends_;   ///< One past each term's last corner.
  std::vector<std::size_t> order_;  ///< Terms by left end.
  std::vector<Vertex> envelope_;    ///< Terms merged so far.
  std::vector<Vertex> tail_;        ///< Envelope right of the next term.
  std::vector<Vertex> curve_;       ///< The aggregated curve's corners.
  /// Probabilistic OR: the Bernstein coefficients of the pieces of degree
  /// >= 2. The piece ending at corner k owns [bern_end_[k - 1], bern_end_[k]).
  std::vector<double> bern_;
  std::vector<std::size_t> bern_end_;
  std::vector<double> events_;       ///< Every corner x, sorted (probor).
  std::vector<std::size_t> cursor_;  ///< Per term: next corner (probor).
  std::vector<double> from_;         ///< Per term: mu right of last event.
  std::vector<double> work_;         ///< A piece's coefficients, scratch.
};

[[nodiscard]] std::string_view toString(Defuzzifier method) noexcept;

}  // namespace facs::fuzzy
