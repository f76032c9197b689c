#pragma once
/// \file detmath.hpp
/// The simulator's own elementary functions: log, log1p, log10, exp,
/// exp10, sincos in degrees, atan2 and hypot.
///
/// Every function here is built from IEEE double +, -, *, / and sqrt
/// alone, so its bits depend on no C math library (glibc picks its
/// exp/log/sincos kernels at run time by CPU feature, so a run's bits
/// used to depend on the host). The functions are constexpr, and their
/// tables are built at compile time. The build must not contract a * b + c
/// into an FMA (-ffp-contract=off): the exact products below rely on it.
///
/// Method. Each function reduces its argument exactly, or into a
/// double-double (hi + lo), and evaluates a short polynomial:
///   log     x = 2^k z, z in [0.6875, 1.375); c = 1/z rounded at the
///           centre of z's subinterval (one of 128); log x = k ln2 - log c +
///           log1p(zc - 1), 1/c and -log c from a 128-entry double-double
///           table, log1p by its Taylor sum (|zc - 1| < 2^-8).
///   exp     x = k ln2/128 + r, |r| <= ln2/256; 2^(j/128) from a
///           128-entry double-double table, exp(r) - 1 by its degree-5
///           Taylor sum.
///   sincos  degrees reduce exactly to r in [-45, 45] by a multiple of 90;
///           r * pi/180 in double-double feeds Taylor kernels to x^17/x^16.
///   atan2   t = min/max of |x|, |y|; c = t rounded to eighths; atan t =
///           atan c + atan((t - c) / (1 + t c)), all in double-double,
///           with atan(c) from a 9-entry table and a degree-15 Taylor sum.
///
/// Stated error bounds, in ulps of the correctly rounded result, over the
/// domains the simulator uses (tests/sim/detmath_test.cpp checks each
/// against a long double reference):
///   log, log1p, log10, exp, exp10, sincosDeg, atan2       <= 1 ulp
///   hypot (two products, a sum and a sqrt, each rounded)  <= 2 ulps
/// Measured maxima: 0.51-0.66 ulp for log, exp and atan2 and their
/// relatives, 0.8 for sincosDeg, 1.2 for hypot. exp results in the
/// subnormal range carry one more rounding.

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace facs::detmath {

namespace detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// An unevaluated sum hi + lo with |lo| <= ulp(hi) / 2.
struct DD {
  double hi = 0.0;
  double lo = 0.0;
};

/// a + b exactly (Knuth).
[[nodiscard]] constexpr DD twoSum(double a, double b) noexcept {
  const double s = a + b;
  const double bb = s - a;
  return {s, (a - (s - bb)) + (b - bb)};
}

/// a + b exactly, given |a| >= |b| or a == 0 (Dekker).
[[nodiscard]] constexpr DD fastTwoSum(double a, double b) noexcept {
  const double s = a + b;
  return {s, b - (s - a)};
}

/// a * b exactly for |a|, |b| < 2^996 (Veltkamp split, Dekker product).
[[nodiscard]] constexpr DD twoProd(double a, double b) noexcept {
  constexpr double kSplit = 134217729.0;  // 2^27 + 1
  const double ta = kSplit * a;
  const double ah = ta - (ta - a);
  const double al = a - ah;
  const double tb = kSplit * b;
  const double bh = tb - (tb - b);
  const double bl = b - bh;
  const double p = a * b;
  return {p, ((ah * bh - p) + ah * bl + al * bh) + al * bl};
}

[[nodiscard]] constexpr DD add(DD a, DD b) noexcept {
  DD s = twoSum(a.hi, b.hi);
  s = fastTwoSum(s.hi, s.lo + (a.lo + b.lo));
  return s;
}

[[nodiscard]] constexpr DD mul(DD a, DD b) noexcept {
  const DD p = twoProd(a.hi, b.hi);
  return fastTwoSum(p.hi, p.lo + (a.hi * b.lo + a.lo * b.hi));
}

[[nodiscard]] constexpr DD div(DD a, DD b) noexcept {
  const double q1 = a.hi / b.hi;
  const DD r1 = add(a, mul(b, {-q1, 0.0}));
  const double q2 = r1.hi / b.hi;
  const DD r2 = add(r1, mul(b, {-q2, 0.0}));
  return add(fastTwoSum(q1, q2), {r2.hi / b.hi, 0.0});
}

[[nodiscard]] constexpr bool signBit(double x) noexcept {
  return (std::bit_cast<std::uint64_t>(x) >> 63) != 0;
}

/// The integer nearest \p x (ties away from zero; an off-by-one at a tie
/// is harmless to every reduction below). |x| < 2^62.
[[nodiscard]] constexpr double nearestInt(double x) noexcept {
  return static_cast<double>(
      static_cast<std::int64_t>(x < 0.0 ? x - 0.5 : x + 0.5));
}

/// 2^m for a normal exponent m in [-1022, 1023].
[[nodiscard]] constexpr double pow2(std::int64_t m) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(m + 1023) << 52);
}

// ---------------------------------------------------------------- log --

// ln 2 split so that k * kLn2Hi is exact for |k| < 2^21.
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

/// 1 / (2j + 1) for j in [0, 25), as hi + lo (table building only).
[[nodiscard]] constexpr std::array<DD, 25> buildOddReciprocals() noexcept {
  std::array<DD, 25> t{};
  for (std::size_t j = 0; j < t.size(); ++j) {
    t[j] = div({1.0, 0.0}, {2.0 * static_cast<double>(j) + 1.0, 0.0});
  }
  return t;
}

/// log c for a double c in [0.72, 1.46], as hi + lo, by the series
/// log c = 2 atanh u = 2 (u + u^3/3 + u^5/5 + ...), u = (c - 1) / (c + 1),
/// |u| < 0.19, to u^49 (table building only).
[[nodiscard]] constexpr DD logSeries(double c) noexcept {
  constexpr std::array<DD, 25> kOdd = buildOddReciprocals();
  const DD u = div({c - 1.0, 0.0}, twoSum(c, 1.0));  // c - 1 is exact
  const DD u2 = mul(u, u);
  DD sum = kOdd.back();
  for (std::size_t j = kOdd.size() - 1; j-- > 0;) {
    sum = add(kOdd[j], mul(u2, sum));
  }
  const DD half = mul(u, sum);
  return add(half, half);
}

/// Subinterval i of [0.6875, 1.375) (2^-8 wide below 1, 2^-7 above): c
/// is 1/z at its centre, rounded; 1/c and -log c are held as hi + lo.
struct LogEntry {
  double c = 1.0;
  double inv_c_hi = 1.0;
  double inv_c_lo = 0.0;
  double neg_log_hi = 0.0;
  double neg_log_lo = 0.0;
};

inline constexpr std::uint64_t kLogOff = 0x3fe6000000000000ULL;  // 0.6875

[[nodiscard]] constexpr std::array<LogEntry, 128> buildLogTable() noexcept {
  std::array<LogEntry, 128> t{};
  for (std::uint64_t i = 0; i < 128; ++i) {
    const double centre = std::bit_cast<double>(kLogOff + ((2 * i + 1) << 44));
    const double c = 1.0 / centre;
    const DD inv = div({1.0, 0.0}, {c, 0.0});
    const DD l = logSeries(c);
    t[i] = {c, inv.hi, inv.lo, -l.hi, -l.lo};
  }
  return t;
}

inline constexpr std::array<LogEntry, 128> kLogTable = buildLogTable();

/// log(x) as hi + lo, for finite x > 0, within 2^-59 absolute (relative
/// once |log x| >= 2^-6). x = 2^k z with z in [0.6875, 1.375), z in table
/// subinterval i; then log x = k ln2 - log c_i + log1p(r), r = (z - 1/c_i)
/// c_i (|r| < 2^-8; z - hi(1/c_i) is exact, so r is within 2^-52 of
/// itself), by log1p's series to r^7.
[[nodiscard]] constexpr DD logTable(double x) noexcept {
  std::uint64_t ix = std::bit_cast<std::uint64_t>(x);
  std::int64_t k = 0;
  if (ix < 0x0010000000000000ULL) {  // subnormal: scale into range
    ix = std::bit_cast<std::uint64_t>(x * 0x1p52);
    k = -52;
  }
  const std::uint64_t tmp = ix - kLogOff;
  const LogEntry& e = kLogTable[(tmp >> 45) % 128];
  k += static_cast<std::int64_t>(tmp) >> 52;
  const double z = std::bit_cast<double>(ix - (tmp & (0xFFFULL << 52)));
  const double r = ((z - e.inv_c_hi) - e.inv_c_lo) * e.c;
  const double r2 = r * r;
  const double tail =
      r2 * r *
      (1.0 / 3 +
       r * (-1.0 / 4 + r * (1.0 / 5 + r * (-1.0 / 6 + r * (1.0 / 7)))));
  const double dk = static_cast<double>(k);
  const DD a = twoSum(dk * kLn2Hi, e.neg_log_hi);
  const DD b = twoSum(a.hi, r);
  return fastTwoSum(b.hi, (a.lo + b.lo) + ((dk * kLn2Lo + e.neg_log_lo) +
                                           (tail - 0.5 * r2)));
}

/// log(x) as hi + lo, for finite x > 0, within 2^-59 relative: near 1,
/// r = x - 1 is exact and log1p's series runs to r^10; elsewhere
/// logTable().
[[nodiscard]] constexpr DD logDD(double x) noexcept {
  if (x > 0x1.f8p-1 && x < 0x1.04p+0) {  // |x - 1| < 2^-6
    const double r = x - 1.0;
    const double r2 = r * r;
    const double tail =
        r2 * r *
        (1.0 / 3 +
         r * (-1.0 / 4 +
              r * (1.0 / 5 +
                   r * (-1.0 / 6 +
                        r * (1.0 / 7 +
                             r * (-1.0 / 8 + r * (1.0 / 9 - r * 0.1)))))));
    return fastTwoSum(r, tail - 0.5 * r2);
  }
  return logTable(x);
}

// ---------------------------------------------------------------- exp --

inline constexpr DD kLn2{0x1.62e42fefa39efp-1, 0x1.abc9e3b39803fp-56};
inline constexpr double k128OverLn2 = 0x1.71547652b82fep+7;
// ln2 / 128 split so that k * kLn2Over128Hi is exact for |k| < 2^18.
inline constexpr double kLn2Over128Hi = 0x1.62e42fefcp-8;
inline constexpr double kLn2Over128Lo = -0x1.c610ca86c3899p-44;
// Adding 1.5 * 2^52 rounds a double below 2^51 to an integer in its low
// mantissa bits.
inline constexpr double kRoundShift = 0x1.8p52;

/// exp(x) of a double-double, |x| < 2^-7, by its Taylor sum (table
/// building only).
[[nodiscard]] constexpr DD expTaylor(DD x) noexcept {
  DD sum{1.0, 0.0};
  DD term{1.0, 0.0};
  for (int n = 1; n <= 16; ++n) {
    term = div(mul(term, x), {static_cast<double>(n), 0.0});
    sum = add(sum, term);
  }
  return sum;
}

/// 2^(j/128), j in [0, 128), as hi + lo: powers of 2^(1/128), each
/// product within 2^-104, so every entry is within 2^-96.
[[nodiscard]] constexpr std::array<DD, 128> buildExp2Table() noexcept {
  const DD step = expTaylor(mul(kLn2, {1.0 / 128.0, 0.0}));
  std::array<DD, 128> t{};
  t[0] = {1.0, 0.0};
  for (std::size_t j = 1; j < t.size(); ++j) t[j] = mul(t[j - 1], step);
  return t;
}

inline constexpr std::array<DD, 128> kExp2Table = buildExp2Table();

/// exp(hi + lo), |lo| <= ulp(hi).
[[nodiscard]] constexpr double expDD(double hi, double lo) noexcept {
  if (!(hi < 709.8)) return hi != hi ? hi : kInf;
  if (hi < -745.2) return 0.0;
  const double shifted = hi * k128OverLn2 + kRoundShift;
  const std::int64_t k = std::bit_cast<std::int64_t>(shifted) -
                         std::bit_cast<std::int64_t>(kRoundShift);
  const double kd = shifted - kRoundShift;  // k, exactly
  // hi - kd * kLn2Over128Hi is exact (Sterbenz); |r| <= ln2/256 + tiny.
  const double r = ((hi - kd * kLn2Over128Hi) - kd * kLn2Over128Lo) + lo;
  const double r2 = r * r;
  // exp(r) - 1 to r^5; truncation below 2^-60.
  const double p = r + r2 * ((0.5 + r * (1.0 / 6)) +
                             r2 * (1.0 / 24 + r * (1.0 / 120)));
  const DD t = kExp2Table[static_cast<std::size_t>(k & 127)];
  const double v = t.hi + (t.lo + t.hi * p);  // in [0.99, 2.01]
  const std::int64_t m = k >> 7;              // floor(k / 128)
  if (m < -1022) return v * pow2(m + 1000) * 0x1p-1000;
  if (m > 1023) return v * pow2(m - 1) * 2.0;
  return v * pow2(m);
}

// ------------------------------------------------------------- sincos --

inline constexpr double kPiOver180Hi = 0x1.1df46a2529d39p-6;
inline constexpr double kPiOver180Lo = 0x1.5c1d8becdd291p-62;

// Taylor coefficients: sin x = x + x^3 (S1 + x^2 S2 + ...), cos x =
// 1 - x^2/2 + x^4 (C1 + x^2 C2 + ...); truncation below 2^-62 on
// |x| <= pi/4.
inline constexpr double kS1 = -1.0 / 6.0;
inline constexpr double kS2 = 1.0 / 120.0;
inline constexpr double kS3 = -1.0 / 5040.0;
inline constexpr double kS4 = 1.0 / 362880.0;
inline constexpr double kS5 = -1.0 / 39916800.0;
inline constexpr double kS6 = 1.0 / 6227020800.0;
inline constexpr double kS7 = -1.0 / 1307674368000.0;
inline constexpr double kS8 = 1.0 / 355687428096000.0;
inline constexpr double kC1 = 1.0 / 24.0;
inline constexpr double kC2 = -1.0 / 720.0;
inline constexpr double kC3 = 1.0 / 40320.0;
inline constexpr double kC4 = -1.0 / 3628800.0;
inline constexpr double kC5 = 1.0 / 479001600.0;
inline constexpr double kC6 = -1.0 / 87178291200.0;
inline constexpr double kC7 = 1.0 / 20922789888000.0;
inline constexpr double kC8 = -1.0 / 6402373705728000.0;

/// sin(x + y), |x| <= pi/4 + tiny, |y| <= ulp(x).
[[nodiscard]] constexpr double sinKernel(double x, double y) noexcept {
  const double z = x * x;
  const double v = z * x;
  const double poly =
      kS1 +
      z * (kS2 +
           z * (kS3 + z * (kS4 + z * (kS5 + z * (kS6 + z * (kS7 + z * kS8))))));
  return x + (v * poly + y * (1.0 - 0.5 * z));
}

/// cos(x + y), same domain.
[[nodiscard]] constexpr double cosKernel(double x, double y) noexcept {
  const DD z = twoProd(x, x);
  const double hz = 0.5 * z.hi;
  const double w = 1.0 - hz;
  const double zh = z.hi;
  const double tail =
      zh * zh *
      (kC1 +
       zh * (kC2 +
             zh * (kC3 +
                   zh * (kC4 + zh * (kC5 + zh * (kC6 + zh * (kC7 + zh * kC8)))))));
  return w + (((1.0 - w) - hz) + (tail - (0.5 * z.lo + x * y)));
}

// -------------------------------------------------------------- atan2 --

inline constexpr DD kPi{0x1.921fb54442d18p+1, 0x1.1a62633145c07p-53};
inline constexpr DD kPiOver2{0x1.921fb54442d18p+0, 0x1.1a62633145c07p-54};
inline constexpr DD kPiOver4{0x1.921fb54442d18p-1, 0x1.1a62633145c07p-55};

/// atan(i/8) for i in [0, 8], as hi + lo, by Euler's series
/// atan x = sum_n (2^2n (n!)^2 / (2n+1)!) x^(2n+1) / (1 + x^2)^(n+1).
[[nodiscard]] constexpr std::array<DD, 9> buildAtanTable() noexcept {
  std::array<DD, 9> t{};
  for (int i = 1; i <= 8; ++i) {
    const double sq = static_cast<double>(i * i);
    const DD y = div({sq, 0.0}, {64.0 + sq, 0.0});  // x^2 / (1 + x^2)
    DD term = div({8.0 * i, 0.0}, {64.0 + sq, 0.0});  // x / (1 + x^2)
    DD sum = term;
    for (int n = 1; n <= 120; ++n) {  // each term at most half the last
      term = div(mul(mul(term, y), {2.0 * n, 0.0}), {2.0 * n + 1.0, 0.0});
      sum = add(sum, term);
    }
    t[static_cast<std::size_t>(i)] = sum;
  }
  return t;
}

inline constexpr std::array<DD, 9> kAtanTable = buildAtanTable();

// atan u = u + u^3 (A1 + u^2 A2 + ...), |u| <= 1/16.
inline constexpr double kA1 = -1.0 / 3.0;
inline constexpr double kA2 = 1.0 / 5.0;
inline constexpr double kA3 = -1.0 / 7.0;
inline constexpr double kA4 = 1.0 / 9.0;
inline constexpr double kA5 = -1.0 / 11.0;
inline constexpr double kA6 = 1.0 / 13.0;
inline constexpr double kA7 = -1.0 / 15.0;

[[nodiscard]] constexpr DD subFrom(DD a, DD b) noexcept {
  return add(a, {-b.hi, -b.lo});
}

/// atan2(ay, ax) for finite ax, ay > 0, as hi + lo in (0, pi/2).
[[nodiscard]] constexpr DD atanFirstQuadrant(double ax, double ay) noexcept {
  const bool swap = ay > ax;
  double a = swap ? ax : ay;
  double b = swap ? ay : ax;
  const double t0 = a / b;
  if (t0 < 0x1p-30) {  // atan t = t - t^3/3, the cube below 2^-60 t
    const DD s{t0, 0.0};
    return swap ? subFrom(kPiOver2, s) : s;
  }
  // Keep the exact products below clear of overflow and underflow; only
  // the ratio matters, and it is at least 2^-30.
  if (b > 0x1p500) {
    a *= 0x1p-600;
    b *= 0x1p-600;
  } else if (b < 0x1p-500) {
    a *= 0x1p600;
    b *= 0x1p600;
  }
  const double t = a / b;  // [0, 1]
  const auto i = static_cast<int>(t * 8.0 + 0.5);
  const double c = i * 0.125;
  // u = (a - c b) / (b + c a) = tan(atan t - atan c), |u| <= 1/16.
  const DD cb = twoProd(c, b);
  const DD ca = twoProd(c, a);
  const DD num = twoSum(a - cb.hi, -cb.lo);  // a - cb.hi is exact
  DD den = twoSum(b, ca.hi);
  den = fastTwoSum(den.hi, den.lo + ca.lo);
  const double u = num.hi / den.hi;
  const DD ud = twoProd(u, den.hi);
  const double u_lo =
      ((((num.hi - ud.hi) - ud.lo) + num.lo) - u * den.lo) / den.hi;
  const double uu = u * u;
  const double tail =
      u * uu *
      (kA1 + uu * (kA2 + uu * (kA3 + uu * (kA4 + uu * (kA5 + uu * (kA6 + uu * kA7))))));
  const DD th = kAtanTable[static_cast<std::size_t>(i)];
  DD s = twoSum(th.hi, u);
  s = fastTwoSum(s.hi, s.lo + (th.lo + (u_lo + tail)));
  return swap ? subFrom(kPiOver2, s) : s;
}

}  // namespace detail

/// Natural logarithm. log(0) = -inf; NaN below 0.
[[nodiscard]] constexpr double log(double x) noexcept {
  if (!(x > 0.0)) return x == 0.0 ? -detail::kInf : detail::kNaN;
  if (x == detail::kInf) return x;
  return detail::logDD(x).hi;
}

/// log(1 + x), accurate for small x. NaN below -1.
[[nodiscard]] constexpr double log1p(double x) noexcept {
  if (!(x > -1.0)) return x == -1.0 ? -detail::kInf : detail::kNaN;
  if (x == detail::kInf) return x;
  const double u = 1.0 + x;
  if (u == 1.0) return x;
  // 1 + x = u + c exactly; log(u + c) = log u + c/u to well below an ulp.
  const double c = x > 1.0 ? 1.0 - (u - x) : x - (u - 1.0);
  const detail::DD l = detail::logDD(u);
  return l.hi + (l.lo + c / u);
}

/// Base-10 logarithm.
[[nodiscard]] constexpr double log10(double x) noexcept {
  if (!(x > 0.0)) return x == 0.0 ? -detail::kInf : detail::kNaN;
  if (x == detail::kInf) return x;
  constexpr double kInvLn10Hi = 0x1.bcb7b1526e50ep-2;
  constexpr double kInvLn10Lo = 0x1.95355baaafad3p-57;
  const detail::DD l = detail::logDD(x);
  const detail::DD p = detail::twoProd(l.hi, kInvLn10Hi);
  return p.hi + (p.lo + (l.hi * kInvLn10Lo + l.lo * kInvLn10Hi));
}

/// e^x.
[[nodiscard]] constexpr double exp(double x) noexcept {
  return detail::expDD(x, 0.0);
}

/// 10^x, exact at integer x whose power is a double.
[[nodiscard]] constexpr double exp10(double x) noexcept {
  constexpr double kLn10Hi = 0x1.26bb1bbb55516p+1;
  constexpr double kLn10Lo = -0x1.f48ad494ea3e9p-53;
  if (!(x < 400.0)) return x != x ? x : detail::kInf;
  if (x < -400.0) return 0.0;
  const detail::DD p = detail::twoProd(x, kLn10Hi);
  return detail::expDD(p.hi, p.lo + x * kLn10Lo);
}

struct SinCos {
  double sin = 0.0;
  double cos = 1.0;
};

/// sin and cos of an angle in degrees, |deg| < 2^52 (NaN outside). The
/// reduction by multiples of 90 degrees is exact, so sincosDeg(90 k) is
/// exactly (0, +-1) or (+-1, 0).
[[nodiscard]] constexpr SinCos sincosDeg(double deg) noexcept {
  if (!(deg < 0x1p52 && deg > -0x1p52)) return {detail::kNaN, detail::kNaN};
  const double q = detail::nearestInt(deg * (1.0 / 90.0));
  const double r = deg - q * 90.0;  // exact (Sterbenz), |r| <= 45 + tiny
  const detail::DD p = detail::twoProd(r, detail::kPiOver180Hi);
  const detail::DD x =
      detail::fastTwoSum(p.hi, p.lo + r * detail::kPiOver180Lo);
  const double s = detail::sinKernel(x.hi, x.lo);
  const double c = detail::cosKernel(x.hi, x.lo);
  switch (static_cast<std::int64_t>(q) & 3) {
    case 0:
      return {s, c};
    case 1:
      return {c, -s};
    case 2:
      return {-s, -c};
    default:
      return {-c, s};
  }
}

/// The angle of (x, y) in radians, in [-pi, pi], with IEEE atan2's
/// handling of signed zeros and infinities.
[[nodiscard]] constexpr double atan2(double y, double x) noexcept {
  if (x != x || y != y) return x + y;
  const bool x_neg = detail::signBit(x);
  const bool y_neg = detail::signBit(y);
  const double ax = x_neg ? -x : x;
  const double ay = y_neg ? -y : y;
  detail::DD r;
  if (ax == detail::kInf || ay == detail::kInf) {
    r = ax == ay ? detail::kPiOver4
                 : (ay == detail::kInf ? detail::kPiOver2 : detail::DD{});
  } else if (ay == 0.0) {
    r = {};
  } else if (ax == 0.0) {
    r = detail::kPiOver2;
  } else {
    r = detail::atanFirstQuadrant(ax, ay);
  }
  if (x_neg) r = detail::subFrom(detail::kPi, r);
  const double angle = r.hi + r.lo;
  return y_neg ? -angle : angle;
}

/// sqrt(x^2 + y^2) by IEEE sqrt; no overflow or underflow guard, which the
/// simulator's km-scale coordinates never need.
[[nodiscard]] inline double hypot(double x, double y) noexcept {
  return std::sqrt(x * x + y * y);
}

}  // namespace facs::detmath
