#pragma once
/// \file defuzzify.hpp
/// Defuzzification of an aggregated output fuzzy set into a crisp value.

#include <span>
#include <string_view>
#include <vector>

#include "fuzzy/membership.hpp"

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

/// Reusable working buffer of the bisector's running area. One scratch
/// serves any resolution (each call resizes it), so a warm scratch keeps
/// repeated defuzzification free of heap traffic.
struct DefuzzScratch {
  std::vector<double> cumulative;
};

/// Defuzzifies a sampled curve: \p x is the sample grid, \p mu the
/// membership at each sample, \p half_dx the trapezoid weights
/// (0.5 * (x[i+1] - x[i]) per segment, so |half_dx| == |x| - 1). Sampling
/// engines precompute the grid and weights once at seal() and every
/// inference only fills \p mu.
///
/// If the curve is identically zero (no rule fired), the grid's midpoint is
/// returned — a neutral value by construction of the FACS output variables
/// (A/R = 0 is "not reject, not accept").
///
/// \throws std::invalid_argument on mismatched spans or fewer than 2 samples.
[[nodiscard]] double defuzzifySampled(Defuzzifier method,
                                      std::span<const double> x,
                                      std::span<const double> mu,
                                      std::span<const double> half_dx,
                                      DefuzzScratch& scratch);

/// Defuzzifies a piecewise-linear curve in closed form. \p curve lists the
/// curve's corners in ascending x over the whole universe (front().x and
/// back().x are its ends); the curve is linear between consecutive corners,
/// and two corners at the same x are a vertical edge. Centroid integrates
/// x*mu and mu exactly per piece, bisector solves the piece's quadratic for
/// the half-area point, and the max family takes the set where mu is within
/// 1e-9 of the peak (its length-weighted mean, infimum or supremum). As on
/// the sampled path, an area (max family: a peak) below 1e-12 returns the
/// universe midpoint.
///
/// \throws std::invalid_argument on fewer than 2 corners or a universe that
///         is empty or runs backwards.
[[nodiscard]] double defuzzifyPiecewise(Defuzzifier method,
                                        std::span<const Vertex> curve);

/// The Min-implication, Max-aggregation output curve of a Mamdani engine
/// whose output terms are all piecewise linear, built from each active
/// term's corners and activation and defuzzified with defuzzifyPiecewise().
/// Every buffer is reused across clear(), so warm use allocates nothing.
class PiecewiseEnvelope {
 public:
  /// Forgets every added term; keeps the buffers.
  void clear() noexcept;

  /// Adds the term with corners \p polyline (ascending x, as reported by
  /// MembershipFunction::vertices()) clipped at \p activation:
  /// mu(x) = min(activation, term(x)).
  void addClipped(std::span<const Vertex> polyline, double activation);

  /// Builds the upper envelope of the added terms over \p universe (zero
  /// where none is positive) and defuzzifies it in closed form.
  [[nodiscard]] double defuzzify(Defuzzifier method, Interval universe);

  /// The envelope the last defuzzify() built, in defuzzifyPiecewise()'s
  /// corner format.
  [[nodiscard]] std::span<const Vertex> curve() const noexcept {
    return curve_;
  }

 private:
  void buildEnvelope(Interval universe);

  std::vector<Vertex> clipped_;     ///< Clipped terms, back to back.
  std::vector<std::size_t> ends_;   ///< One past each term's last corner.
  std::vector<std::size_t> order_;  ///< Terms by left end.
  std::vector<Vertex> envelope_;    ///< Max of the terms merged so far.
  std::vector<Vertex> tail_;        ///< Envelope right of the next term.
  std::vector<Vertex> curve_;       ///< The envelope over the universe.
};

/// Fills \p weights with the trapezoid integration weights of grid \p x:
/// weights[i] = 0.5 * (x[i+1] - x[i]).
void fillTrapezoidWeights(std::span<const double> x,
                          std::vector<double>& weights);

[[nodiscard]] std::string_view toString(Defuzzifier method) noexcept;

}  // namespace facs::fuzzy
