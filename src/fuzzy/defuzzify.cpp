#include "fuzzy/defuzzify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace facs::fuzzy {

namespace {

constexpr double kZeroArea = 1e-12;
/// Samples (max family) or points within this of the peak count as maximal.
constexpr double kPeakTolerance = 1e-9;

double centroid(std::span<const double> x, std::span<const double> mu,
                std::span<const double> w) {
  // Trapezoidal integration of x*mu(x) and mu(x); w[i-1] = 0.5 * dx of the
  // segment, so each addend matches the historical 0.5 * dx * (...) bit for
  // bit (0.5 * dx is an exact product either way).
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    num += w[i - 1] * (x[i] * mu[i] + x[i - 1] * mu[i - 1]);
    den += w[i - 1] * (mu[i] + mu[i - 1]);
  }
  if (den < kZeroArea) return 0.5 * (x.front() + x.back());
  return num / den;
}

double bisector(std::span<const double> x, std::span<const double> mu,
                std::span<const double> w, std::vector<double>& cumulative) {
  double total = 0.0;
  cumulative.assign(x.size(), 0.0);
  for (std::size_t i = 1; i < x.size(); ++i) {
    total += w[i - 1] * (mu[i] + mu[i - 1]);
    cumulative[i] = total;
  }
  if (total < kZeroArea) return 0.5 * (x.front() + x.back());
  const double half = 0.5 * total;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (cumulative[i] >= half) {
      // Linear interpolation within the segment for a stable answer.
      const double seg = cumulative[i] - cumulative[i - 1];
      const double t = seg > 0.0 ? (half - cumulative[i - 1]) / seg : 0.0;
      return x[i - 1] + t * (x[i] - x[i - 1]);
    }
  }
  return x.back();
}

enum class MaxPick { Mean, Smallest, Largest };

double ofMax(std::span<const double> x, std::span<const double> mu,
             MaxPick pick) {
  double peak = 0.0;
  for (const double m : mu) peak = std::max(peak, m);
  if (peak < kZeroArea) return 0.5 * (x.front() + x.back());
  double sum = 0.0;
  std::size_t count = 0;
  double smallest = x.back();
  double largest = x.front();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (mu[i] >= peak - kPeakTolerance) {
      sum += x[i];
      ++count;
      smallest = std::min(smallest, x[i]);
      largest = std::max(largest, x[i]);
    }
  }
  switch (pick) {
    case MaxPick::Mean:
      return sum / static_cast<double>(count);
    case MaxPick::Smallest:
      return smallest;
    case MaxPick::Largest:
      return largest;
  }
  return sum / static_cast<double>(count);
}

double dispatch(Defuzzifier method, std::span<const double> x,
                std::span<const double> mu, std::span<const double> w,
                std::vector<double>& cumulative) {
  switch (method) {
    case Defuzzifier::Centroid:
      return centroid(x, mu, w);
    case Defuzzifier::Bisector:
      return bisector(x, mu, w, cumulative);
    case Defuzzifier::MeanOfMax:
      return ofMax(x, mu, MaxPick::Mean);
    case Defuzzifier::SmallestOfMax:
      return ofMax(x, mu, MaxPick::Smallest);
    case Defuzzifier::LargestOfMax:
      return ofMax(x, mu, MaxPick::Largest);
  }
  return centroid(x, mu, w);
}

// --- Closed-form defuzzification of a piecewise-linear curve -------------
// Each piece runs from corner p to corner q; a piece with q.x == p.x is a
// vertical edge and has no area.

double centroidPiecewise(std::span<const Vertex> c) {
  // Exact per piece: area h (p + q) / 2 and first moment
  // h (p.x (2 p + q) + q.x (p + 2 q)) / 6 for mu linear from p to q.
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 1; i < c.size(); ++i) {
    const Vertex& p = c[i - 1];
    const Vertex& q = c[i];
    const double h = q.x - p.x;
    num += h * (p.x * (2.0 * p.mu + q.mu) + q.x * (p.mu + 2.0 * q.mu));
    den += h * (p.mu + q.mu);
  }
  num /= 6.0;
  den *= 0.5;
  if (den < kZeroArea) return 0.5 * (c.front().x + c.back().x);
  return num / den;
}

double bisectorPiecewise(std::span<const Vertex> c) {
  const auto area = [&](std::size_t i) {
    return 0.5 * (c[i].x - c[i - 1].x) * (c[i - 1].mu + c[i].mu);
  };
  double total = 0.0;
  for (std::size_t i = 1; i < c.size(); ++i) total += area(i);
  if (total < kZeroArea) return 0.5 * (c.front().x + c.back().x);
  const double half = 0.5 * total;
  double before = 0.0;
  for (std::size_t i = 1; i < c.size(); ++i) {
    const double a = area(i);
    if (before + a >= half) {
      // Area from p.x to p.x + t is p t + s t^2 / 2 with slope s; solve it
      // for the missing area in the cancellation-free form of the root.
      const Vertex& p = c[i - 1];
      const Vertex& q = c[i];
      const double h = q.x - p.x;
      const double need = std::max(0.0, half - before);
      if (h <= 0.0 || need <= 0.0) return p.x;
      const double slope = (q.mu - p.mu) / h;
      const double root =
          std::sqrt(std::max(0.0, p.mu * p.mu + 2.0 * slope * need));
      const double t = 2.0 * need / (p.mu + root);
      return p.x + std::min(t, h);
    }
    before += a;
  }
  return c.back().x;
}

double ofMaxPiecewise(std::span<const Vertex> c, MaxPick pick) {
  double peak = 0.0;
  for (const Vertex& v : c) peak = std::max(peak, v.mu);
  if (peak < kZeroArea) return 0.5 * (c.front().x + c.back().x);
  const double floor = peak - kPeakTolerance;
  double length = 0.0;
  double moment = 0.0;
  double smallest = c.back().x;
  double largest = c.front().x;
  for (std::size_t i = 1; i < c.size(); ++i) {
    const Vertex& p = c[i - 1];
    const Vertex& q = c[i];
    if (p.mu < floor && q.mu < floor) continue;
    // The part of the piece at or above the floor: all of it, or the side
    // of the point where the line crosses the floor.
    double a = p.x;
    double b = q.x;
    if (p.mu < floor) {
      a = p.x + (floor - p.mu) / (q.mu - p.mu) * (q.x - p.x);
    } else if (q.mu < floor) {
      b = p.x + (floor - p.mu) / (q.mu - p.mu) * (q.x - p.x);
    }
    smallest = std::min(smallest, a);
    largest = std::max(largest, b);
    if (b > a) {
      length += b - a;
      moment += 0.5 * (a + b) * (b - a);
    }
  }
  switch (pick) {
    case MaxPick::Mean:
      // A maximising set of isolated points (a spike) has no length.
      return length > 0.0 ? moment / length : 0.5 * (smallest + largest);
    case MaxPick::Smallest:
      return smallest;
    case MaxPick::Largest:
      return largest;
  }
  return smallest;
}

// --- The upper envelope of clipped piecewise-linear terms ---------------

/// mu at \p x on the piece from \p p to \p q (p.x <= x <= q.x, p.x < q.x),
/// exact at both corners.
double lerp(const Vertex& p, const Vertex& q, double x) {
  if (x == q.x) return q.mu;
  return p.mu + (q.mu - p.mu) * ((x - p.x) / (q.x - p.x));
}

/// Appends (x, mu) unless it repeats the last corner.
void emit(std::vector<Vertex>& out, double x, double mu) {
  if (out.empty() || out.back() != Vertex{x, mu}) out.push_back({x, mu});
}

/// One curve's values at an event x: its left limit, its largest value at
/// x itself and its right limit (all equal off a vertical edge).
struct AtEvent {
  double left;
  double peak;
  double right;
};

/// The value of curve \p c at event \p x, advancing \p i past every
/// corner at x. \p c is zero outside its corners.
AtEvent step(std::span<const Vertex> c, std::size_t& i, double x) {
  if (i < c.size() && c[i].x == x) {
    AtEvent at{c[i].mu, c[i].mu, c[i].mu};
    for (++i; i < c.size() && c[i].x == x; ++i) {
      at.peak = std::max(at.peak, c[i].mu);
      at.right = c[i].mu;
    }
    return at;
  }
  if (i == 0 || i == c.size()) return {0.0, 0.0, 0.0};
  const double mu = lerp(c[i - 1], c[i], x);
  return {mu, mu, mu};
}

/// out = max(a, b) over the union of their corners: both are linear between
/// consecutive events, so their pointwise max bends only at the events and
/// where the two cross between them.
void mergeMax(std::span<const Vertex> a, std::span<const Vertex> b,
              std::vector<Vertex>& out) {
  constexpr double kEnd = std::numeric_limits<double>::infinity();
  std::size_t i = 0;
  std::size_t j = 0;
  double prev_x = 0.0;
  AtEvent prev_a{};
  AtEvent prev_b{};
  bool first = true;
  while (i < a.size() || j < b.size()) {
    const double x = std::min(i < a.size() ? a[i].x : kEnd,
                              j < b.size() ? b[j].x : kEnd);
    const AtEvent va = step(a, i, x);
    const AtEvent vb = step(b, j, x);
    if (!first) {
      const double d0 = prev_a.right - prev_b.right;
      const double d1 = va.left - vb.left;
      if ((d0 < 0.0 && d1 > 0.0) || (d0 > 0.0 && d1 < 0.0)) {
        const double f = d0 / (d0 - d1);
        emit(out, prev_x + f * (x - prev_x),
             std::max(prev_a.right + f * (va.left - prev_a.right),
                      prev_b.right + f * (vb.left - prev_b.right)));
      }
    }
    const double left = std::max(va.left, vb.left);
    const double peak = std::max(va.peak, vb.peak);
    const double right = std::max(va.right, vb.right);
    emit(out, x, left);
    if (peak != left) out.push_back({x, peak});
    if (right != peak) out.push_back({x, right});
    prev_x = x;
    prev_a = va;
    prev_b = vb;
    first = false;
  }
}

}  // namespace

double defuzzifyPiecewise(Defuzzifier method, std::span<const Vertex> curve) {
  if (curve.size() < 2 || !(curve.front().x < curve.back().x)) {
    throw std::invalid_argument(
        "piecewise defuzzification needs >= 2 corners over a non-empty "
        "universe");
  }
  switch (method) {
    case Defuzzifier::Centroid:
      return centroidPiecewise(curve);
    case Defuzzifier::Bisector:
      return bisectorPiecewise(curve);
    case Defuzzifier::MeanOfMax:
      return ofMaxPiecewise(curve, MaxPick::Mean);
    case Defuzzifier::SmallestOfMax:
      return ofMaxPiecewise(curve, MaxPick::Smallest);
    case Defuzzifier::LargestOfMax:
      return ofMaxPiecewise(curve, MaxPick::Largest);
  }
  return centroidPiecewise(curve);
}

void PiecewiseEnvelope::clear() noexcept {
  clipped_.clear();
  ends_.clear();
}

void PiecewiseEnvelope::addClipped(std::span<const Vertex> polyline,
                                   double activation) {
  if (polyline.empty()) {
    throw std::invalid_argument("clipped term needs at least one corner");
  }
  // Each clipped term is stored as a bump: it starts and ends at mu = 0
  // (a vertical edge is added where the shape's own ends are not zero).
  const auto push = [&](double x, double mu) { clipped_.push_back({x, mu}); };
  if (polyline.front().mu > 0.0) push(polyline.front().x, 0.0);
  push(polyline.front().x, std::min(activation, polyline.front().mu));
  for (std::size_t i = 1; i < polyline.size(); ++i) {
    const Vertex& p = polyline[i - 1];
    const Vertex& q = polyline[i];
    if (p.x < q.x && (p.mu - activation) * (q.mu - activation) < 0.0) {
      // The side crosses the clip level: a new corner at the crossing.
      const double x = p.x + (activation - p.mu) / (q.mu - p.mu) * (q.x - p.x);
      push(std::clamp(x, p.x, q.x), activation);
    }
    push(q.x, std::min(activation, q.mu));
  }
  if (polyline.back().mu > 0.0) push(polyline.back().x, 0.0);
  ends_.push_back(clipped_.size());
}

double PiecewiseEnvelope::defuzzify(Defuzzifier method, Interval universe) {
  buildEnvelope(universe);
  return defuzzifyPiecewise(method, curve_);
}

void PiecewiseEnvelope::buildEnvelope(Interval universe) {
  // Merge the clipped terms into the envelope in order of their left end.
  // Everything left of the next term's start is then final, so each merge
  // only walks the envelope's tail from that start on.
  order_.resize(ends_.size());
  for (std::size_t t = 0; t < order_.size(); ++t) order_[t] = t;
  const auto start = [&](std::size_t t) {
    return clipped_[t == 0 ? 0 : ends_[t - 1]].x;
  };
  for (std::size_t k = 1; k < order_.size(); ++k) {
    // Insertion sort: terms usually arrive left to right already.
    for (std::size_t m = k; m > 0 && start(order_[m]) < start(order_[m - 1]);
         --m) {
      std::swap(order_[m], order_[m - 1]);
    }
  }

  envelope_.clear();
  for (const std::size_t t : order_) {
    const std::span<const Vertex> term{
        clipped_.data() + (t == 0 ? 0 : ends_[t - 1]),
        clipped_.data() + ends_[t]};
    const double x0 = term.front().x;
    std::size_t keep = envelope_.size();
    while (keep > 0 && envelope_[keep - 1].x >= x0) --keep;
    if (keep == envelope_.size()) {
      // Disjoint from everything so far (the envelope ends at mu = 0).
      for (const Vertex& v : term) emit(envelope_, v.x, v.mu);
      continue;
    }
    tail_.clear();
    if (keep > 0 && envelope_[keep].x > x0) {
      tail_.push_back({x0, lerp(envelope_[keep - 1], envelope_[keep], x0)});
    }
    tail_.insert(tail_.end(),
                 envelope_.begin() + static_cast<std::ptrdiff_t>(keep),
                 envelope_.end());
    envelope_.resize(keep);
    mergeMax(tail_, term, envelope_);
  }

  // Restrict to the universe: its ends carry the envelope's one-sided
  // limits (zero outside every term).
  const auto at = [&](double x, bool from_right) {
    const auto it = from_right
        ? std::upper_bound(envelope_.begin(), envelope_.end(), x,
                           [](double v, const Vertex& c) { return v < c.x; })
        : std::lower_bound(envelope_.begin(), envelope_.end(), x,
                           [](const Vertex& c, double v) { return c.x < v; });
    if (it == envelope_.begin() || it == envelope_.end()) return 0.0;
    return lerp(*(it - 1), *it, x);
  };
  curve_.clear();
  curve_.push_back({universe.lo, at(universe.lo, true)});
  for (const Vertex& v : envelope_) {
    if (v.x > universe.lo && v.x < universe.hi) emit(curve_, v.x, v.mu);
  }
  emit(curve_, universe.hi, at(universe.hi, false));
}

void fillTrapezoidWeights(std::span<const double> x,
                          std::vector<double>& weights) {
  weights.resize(x.empty() ? 0 : x.size() - 1);
  for (std::size_t i = 1; i < x.size(); ++i) {
    weights[i - 1] = 0.5 * (x[i] - x[i - 1]);
  }
}

double defuzzifySampled(Defuzzifier method, std::span<const double> x,
                        std::span<const double> mu,
                        std::span<const double> half_dx,
                        DefuzzScratch& scratch) {
  if (x.size() < 2) {
    throw std::invalid_argument("defuzzification needs >= 2 samples");
  }
  if (mu.size() != x.size() || half_dx.size() != x.size() - 1) {
    throw std::invalid_argument(
        "defuzzification sample spans have mismatched sizes");
  }
  return dispatch(method, x, mu, half_dx, scratch.cumulative);
}

std::string_view toString(Defuzzifier method) noexcept {
  switch (method) {
    case Defuzzifier::Centroid:
      return "centroid";
    case Defuzzifier::Bisector:
      return "bisector";
    case Defuzzifier::MeanOfMax:
      return "mom";
    case Defuzzifier::SmallestOfMax:
      return "som";
    case Defuzzifier::LargestOfMax:
      return "lom";
  }
  return "centroid";
}

}  // namespace facs::fuzzy
