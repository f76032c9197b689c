#include "fuzzy/defuzzify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace facs::fuzzy {

namespace {

constexpr double kZeroArea = 1e-12;
/// Points within this of the peak count as maximal (max family).
constexpr double kPeakTolerance = 1e-9;

enum class MaxPick { Mean, Smallest, Largest };

// --- Exact defuzzification of a piecewise curve ---------------------------
// Piece i runs from corner p = c[i - 1] to corner q = c[i]; a piece with
// q.x == p.x is a vertical edge and has no area. A piece is linear unless
// it has Bernstein coefficients b_0..b_n (b_0 = p.mu, b_n = q.mu) over
// s = (x - p.x) / h in [0, 1]: mu = sum_j b_j C(n, j) s^j (1 - s)^(n - j).

/// The Bernstein coefficients of piece i; empty when the piece is linear.
std::span<const double> coefficients(std::span<const double> bern,
                                     std::span<const std::size_t> ends,
                                     std::size_t i) {
  if (ends.empty()) return {};
  return bern.subspan(ends[i - 1], ends[i] - ends[i - 1]);
}

/// De Casteljau's algorithm, stable at any degree: the value at s of the
/// piece with Bernstein coefficients \p b, and its area over [0, s] per
/// unit of h. That area is s times the mean coefficient of the piece's
/// restriction to [0, s], whose coefficients are the levels' first entries.
std::pair<double, double> deCasteljau(std::span<const double> b, double s,
                                      std::vector<double>& work) {
  work.assign(b.begin(), b.end());
  double sum = work[0];
  for (std::size_t n = work.size() - 1; n > 0; --n) {
    for (std::size_t j = 0; j < n; ++j) work[j] += s * (work[j + 1] - work[j]);
    sum += work[0];
  }
  return {work[0], s * sum / static_cast<double>(b.size())};
}

/// Where in [lo, hi] the monotone \p reached (false at lo, true at hi)
/// turns true, bisected to rounding.
template <typename Pred>
double boundary(double lo, double hi, Pred reached) {
  for (int k = 0; k < 64; ++k) {
    const double mid = 0.5 * (lo + hi);
    (reached(mid) ? hi : lo) = mid;
  }
  return 0.5 * (lo + hi);
}

double centroidPiecewise(std::span<const Vertex> c,
                         std::span<const double> bern,
                         std::span<const std::size_t> ends) {
  // Exact per piece. Linear: area h (p + q) / 2 and first moment
  // h (p.x (2 p + q) + q.x (p + 2 q)) / 6. Degree n: area
  // h sum(b_j) / (n + 1) and first moment about p.x
  // h^2 sum((j + 1) b_j) / ((n + 1) (n + 2)). Sums hold 6 x the moment
  // and 2 x the area.
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 1; i < c.size(); ++i) {
    const Vertex& p = c[i - 1];
    const Vertex& q = c[i];
    const double h = q.x - p.x;
    const std::span<const double> b = coefficients(bern, ends, i);
    if (b.empty()) {
      num += h * (p.x * (2.0 * p.mu + q.mu) + q.x * (p.mu + 2.0 * q.mu));
      den += h * (p.mu + q.mu);
      continue;
    }
    const double n1 = static_cast<double>(b.size());
    double sum = 0.0;
    double moment = 0.0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      sum += b[j];
      moment += static_cast<double>(j + 1) * b[j];
    }
    const double area = h * sum / n1;
    num += 6.0 * (p.x * area + h * h * moment / (n1 * (n1 + 1.0)));
    den += 2.0 * area;
  }
  num /= 6.0;
  den *= 0.5;
  if (den < kZeroArea) return 0.5 * (c.front().x + c.back().x);
  return num / den;
}

double bisectorPiecewise(std::span<const Vertex> c,
                         std::span<const double> bern,
                         std::span<const std::size_t> ends,
                         std::vector<double>& work) {
  const auto area = [&](std::size_t i) {
    const std::span<const double> b = coefficients(bern, ends, i);
    if (b.empty()) {
      return 0.5 * (c[i].x - c[i - 1].x) * (c[i - 1].mu + c[i].mu);
    }
    double sum = 0.0;
    for (const double v : b) sum += v;
    return (c[i].x - c[i - 1].x) * sum / static_cast<double>(b.size());
  };
  double total = 0.0;
  for (std::size_t i = 1; i < c.size(); ++i) total += area(i);
  if (total < kZeroArea) return 0.5 * (c.front().x + c.back().x);
  const double half = 0.5 * total;
  double before = 0.0;
  for (std::size_t i = 1; i < c.size(); ++i) {
    const double a = area(i);
    if (before + a >= half) {
      const Vertex& p = c[i - 1];
      const Vertex& q = c[i];
      const double h = q.x - p.x;
      const double need = std::max(0.0, half - before);
      if (h <= 0.0 || need <= 0.0) return p.x;
      const std::span<const double> b = coefficients(bern, ends, i);
      if (!b.empty()) {
        // The area from p.x rises with s: bisect it for the missing area.
        return p.x + h * boundary(0.0, 1.0, [&](double s) {
                 return h * deCasteljau(b, s, work).second >= need;
               });
      }
      // Area from p.x to p.x + t is p t + s t^2 / 2 with slope s; solve it
      // for the missing area in the cancellation-free form of the root.
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

double ofMaxPiecewise(std::span<const Vertex> c,
                      std::span<const double> bern,
                      std::span<const std::size_t> ends, MaxPick pick) {
  // A bent piece peaks at a corner too: mu is quasiconvex on it.
  double peak = 0.0;
  for (const Vertex& v : c) peak = std::max(peak, v.mu);
  if (peak < kZeroArea) return 0.5 * (c.front().x + c.back().x);
  // The maximising set is where mu equals the peak, the tolerance only
  // absorbing rounding: every corner within it, and every piece whose
  // Bernstein coefficients (a linear piece: both corners) all lie within
  // it. A side sloping away from the peak adds nothing, so a sharp apex is
  // a point.
  const double floor = peak - kPeakTolerance;
  double length = 0.0;
  double moment = 0.0;
  double points = 0.0;
  double point_sum = 0.0;
  double smallest = c.back().x;
  double largest = c.front().x;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Vertex& q = c[i];
    if (q.mu < floor) continue;
    // Corners ascend, so largest is the last maximal corner's x: the two
    // corners of a vertical edge are one point.
    if (points == 0.0 || q.x != largest) {
      points += 1.0;
      point_sum += q.x;
    }
    smallest = std::min(smallest, q.x);
    largest = q.x;
    if (i == 0) continue;
    const Vertex& p = c[i - 1];
    const std::span<const double> b = coefficients(bern, ends, i);
    if (p.mu < floor || !(p.x < q.x) ||
        std::any_of(b.begin(), b.end(), [&](double v) { return v < floor; })) {
      continue;
    }
    length += q.x - p.x;
    moment += 0.5 * (p.x + q.x) * (q.x - p.x);
  }
  switch (pick) {
    case MaxPick::Mean:
      // Points have no length: they count only where no piece is maximal.
      return length > 0.0 ? moment / length : point_sum / points;
    case MaxPick::Smallest:
      return smallest;
    case MaxPick::Largest:
      return largest;
  }
  return smallest;
}

double defuzzifyCurve(Defuzzifier method, std::span<const Vertex> c,
                      std::span<const double> bern,
                      std::span<const std::size_t> ends,
                      std::vector<double>& work) {
  switch (method) {
    case Defuzzifier::Centroid:
      return centroidPiecewise(c, bern, ends);
    case Defuzzifier::Bisector:
      return bisectorPiecewise(c, bern, ends, work);
    case Defuzzifier::MeanOfMax:
      return ofMaxPiecewise(c, bern, ends, MaxPick::Mean);
    case Defuzzifier::SmallestOfMax:
      return ofMaxPiecewise(c, bern, ends, MaxPick::Smallest);
    case Defuzzifier::LargestOfMax:
      return ofMaxPiecewise(c, bern, ends, MaxPick::Largest);
  }
  return centroidPiecewise(c, bern, ends);
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

/// out = a (+) b over the union of their corners, for (+) max or bounded
/// sum: both are linear between consecutive events, so out bends only at
/// the events and where, between two, the curves cross (max) or their sum
/// crosses 1 (bounded sum).
void merge(SNorm aggregation, std::span<const Vertex> a,
           std::span<const Vertex> b, std::vector<Vertex>& out) {
  constexpr double kEnd = std::numeric_limits<double>::infinity();
  const auto join = [aggregation](double u, double v) {
    return apply(aggregation, u, v);
  };
  const auto bend = [aggregation](double u, double v) {
    return aggregation == SNorm::Maximum ? u - v : u + v - 1.0;
  };
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
      const double d0 = bend(prev_a.right, prev_b.right);
      const double d1 = bend(va.left, vb.left);
      if ((d0 < 0.0 && d1 > 0.0) || (d0 > 0.0 && d1 < 0.0)) {
        const double f = d0 / (d0 - d1);
        emit(out, prev_x + f * (x - prev_x),
             join(prev_a.right + f * (va.left - prev_a.right),
                  prev_b.right + f * (vb.left - prev_b.right)));
      }
    }
    const double left = join(va.left, vb.left);
    const double peak = join(va.peak, vb.peak);
    const double right = join(va.right, vb.right);
    emit(out, x, left);
    if (peak != left) out.push_back({x, peak});
    if (right != peak) out.push_back({x, right});
    prev_x = x;
    prev_a = va;
    prev_b = vb;
    first = false;
  }
}

/// Multiplies the Bernstein polynomial \p b of degree n by the affine
/// u (1 - s) + w s, giving degree n + 1. The end coefficients stay plain
/// products of the factors' end values.
void multiplyAffine(std::vector<double>& b, double u, double w) {
  const std::size_t n1 = b.size();
  b.push_back(0.0);
  for (std::size_t k = n1; k > 0; --k) {
    const double wk = static_cast<double>(k) / static_cast<double>(n1);
    b[k] = w * b[k - 1] * wk + u * b[k] * (1.0 - wk);
  }
  b[0] *= u;
}

}  // namespace

double defuzzifyPiecewise(Defuzzifier method, std::span<const Vertex> curve) {
  if (curve.size() < 2 || !(curve.front().x < curve.back().x)) {
    throw std::invalid_argument(
        "piecewise defuzzification needs >= 2 corners over a non-empty "
        "universe");
  }
  std::vector<double> work;  // unused: every piece is linear
  return defuzzifyCurve(method, curve, {}, {}, work);
}

void PiecewiseEnvelope::clear() noexcept {
  implied_.clear();
  ends_.clear();
}

void PiecewiseEnvelope::add(TNorm implication, std::span<const Vertex> polyline,
                            double activation) {
  if (polyline.empty()) {
    throw std::invalid_argument("implied term needs at least one corner");
  }
  // Implication maps mu through a function that bends at most once: min
  // clips at the activation, Lukasiewicz is zero up to 1 - activation, and
  // product only scales. A side that crosses the bend gets a corner there.
  const double bend = implication == TNorm::Minimum ? activation
                      : implication == TNorm::BoundedDifference
                          ? 1.0 - activation
                          : -1.0;
  const double at_bend = implication == TNorm::Minimum ? activation : 0.0;
  const auto imply = [&](double mu) {
    return apply(implication, activation, mu);
  };
  // Each implied term is stored as a bump: it starts and ends at mu = 0
  // (a vertical edge is added where the implied ends are not zero).
  const auto push = [&](double x, double mu) { implied_.push_back({x, mu}); };
  if (imply(polyline.front().mu) > 0.0) push(polyline.front().x, 0.0);
  push(polyline.front().x, imply(polyline.front().mu));
  for (std::size_t i = 1; i < polyline.size(); ++i) {
    const Vertex& p = polyline[i - 1];
    const Vertex& q = polyline[i];
    if (p.x < q.x && (p.mu - bend) * (q.mu - bend) < 0.0) {
      const double x = p.x + (bend - p.mu) / (q.mu - p.mu) * (q.x - p.x);
      push(std::clamp(x, p.x, q.x), at_bend);
    }
    push(q.x, imply(q.mu));
  }
  if (imply(polyline.back().mu) > 0.0) push(polyline.back().x, 0.0);
  ends_.push_back(implied_.size());
}

double PiecewiseEnvelope::defuzzify(SNorm aggregation, Defuzzifier method,
                                    Interval universe) {
  if (aggregation == SNorm::AlgebraicSum) {
    buildProbor(universe);
  } else {
    buildEnvelope(aggregation, universe);
  }
  return defuzzifyCurve(method, curve_, bern_, bern_end_, work_);
}

std::span<const Vertex> PiecewiseEnvelope::term(std::size_t t) const {
  return {implied_.data() + (t == 0 ? 0 : ends_[t - 1]),
          implied_.data() + ends_[t]};
}

void PiecewiseEnvelope::buildEnvelope(SNorm aggregation, Interval universe) {
  // Merge the implied terms into the envelope in order of their left end.
  // Everything left of the next term's start is then final, so each merge
  // only walks the envelope's tail from that start on.
  order_.resize(ends_.size());
  for (std::size_t t = 0; t < order_.size(); ++t) order_[t] = t;
  const auto start = [&](std::size_t t) { return term(t).front().x; };
  for (std::size_t k = 1; k < order_.size(); ++k) {
    // Insertion sort: terms usually arrive left to right already.
    for (std::size_t m = k; m > 0 && start(order_[m]) < start(order_[m - 1]);
         --m) {
      std::swap(order_[m], order_[m - 1]);
    }
  }

  envelope_.clear();
  for (const std::size_t t : order_) {
    const std::span<const Vertex> next = term(t);
    const double x0 = next.front().x;
    std::size_t keep = envelope_.size();
    while (keep > 0 && envelope_[keep - 1].x >= x0) --keep;
    if (keep == envelope_.size()) {
      // Disjoint from everything so far (the envelope ends at mu = 0).
      for (const Vertex& v : next) emit(envelope_, v.x, v.mu);
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
    merge(aggregation, tail_, next, envelope_);
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
  bern_end_.clear();  // every piece is linear
  curve_.push_back({universe.lo, at(universe.lo, true)});
  for (const Vertex& v : envelope_) {
    if (v.x > universe.lo && v.x < universe.hi) emit(curve_, v.x, v.mu);
  }
  emit(curve_, universe.hi, at(universe.hi, false));
}

void PiecewiseEnvelope::buildProbor(Interval universe) {
  // Sweep every corner of every implied term in ascending x. Between two
  // consecutive events each term is linear, from its right limit at the
  // first to its left limit at the second, so the complement
  // prod(1 - f_i) there is the product of one affine factor per live term.
  events_.clear();
  for (const Vertex& v : implied_) events_.push_back(v.x);
  events_.push_back(universe.lo);
  events_.push_back(universe.hi);
  std::sort(events_.begin(), events_.end());
  events_.erase(std::unique(events_.begin(), events_.end()), events_.end());
  cursor_.assign(ends_.size(), 0);
  from_.assign(ends_.size(), 0.0);
  curve_.clear();
  bern_.clear();
  bern_end_.clear();
  for (const double x : events_) {
    if (x > universe.hi) break;
    // Complements at x (left limit, largest value, right limit) and the
    // complement's Bernstein coefficients on the piece that ends at x.
    double left = 1.0;
    double peak = 1.0;
    double right = 1.0;
    work_.assign(1, 1.0);
    for (std::size_t t = 0; t < ends_.size(); ++t) {
      const AtEvent at = step(term(t), cursor_[t], x);
      if (x > universe.lo && (from_[t] > 0.0 || at.left > 0.0)) {
        multiplyAffine(work_, 1.0 - from_[t], 1.0 - at.left);
      }
      left *= 1.0 - at.left;
      peak *= 1.0 - at.peak;
      right *= 1.0 - at.right;
      from_[t] = at.right;
    }
    if (x < universe.lo) continue;
    // Up to degree 1 the piece is the line between its corners. The
    // universe's ends keep only their inner one-sided limits.
    if (work_.size() > 2) {
      for (const double b : work_) bern_.push_back(1.0 - b);
    }
    const auto corner = [&](double complement) {
      curve_.push_back({x, 1.0 - complement});
      bern_end_.push_back(bern_.size());
    };
    if (x > universe.lo) corner(left);
    if (x > universe.lo && x < universe.hi && peak != left) corner(peak);
    if (x < universe.hi && (x == universe.lo || right != peak)) corner(right);
  }
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
