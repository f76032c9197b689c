/// \file detmath_test.cpp
/// Checks each sim/detmath.hpp function against a long double reference
/// over the domain the simulator uses, within the ulp bound its header
/// states, plus the special values the simulator relies on.

#include "sim/detmath.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/rng.hpp"

namespace facs::detmath {
namespace {

constexpr int kSamples = 200'000;
constexpr long double kPiL = 3.141592653589793238462643383279502884L;

/// |got - ref| in ulps of the double nearest \p ref (subnormal spacing
/// below the normal range).
double ulpError(double got, long double ref) {
  const double nearest = static_cast<double>(ref);
  int e = 0;
  (void)std::frexp(nearest, &e);
  const long double ulp = std::ldexp(1.0L, std::max(e - 53, -1074));
  return static_cast<double>(
      std::fabs(static_cast<long double>(got) - ref) / ulp);
}

/// Largest error of \p fn against \p ref over kSamples arguments drawn by
/// \p arg.
template <class Arg, class Fn, class Ref>
double maxError(Arg&& arg, Fn&& fn, Ref&& ref) {
  double worst = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = arg();
    worst = std::max(worst, ulpError(fn(x), ref(static_cast<long double>(x))));
  }
  return worst;
}

/// 2^e * [1, 2) with e uniform in [lo, hi].
double wideMagnitude(sim::Rng& rng, int lo, int hi) {
  const int e = lo + static_cast<int>(sim::sampleIndex(
                         rng, static_cast<std::uint32_t>(hi - lo + 1)));
  return std::ldexp(1.0 + rng.uniform01(), e);
}

TEST(DetMath, LogWithinOneUlp) {
  sim::Rng rng = sim::makeRng(1);
  const auto lg = [](double x) { return log(x); };
  const auto ref = [](long double x) { return std::log(x); };
  // Every binade, subnormals included; then around 1, where log is small.
  EXPECT_LE(maxError([&] { return wideMagnitude(rng, -1074, 1023); }, lg, ref),
            1.0);
  EXPECT_LE(maxError([&] { return sim::sampleUniform(rng, 0.5, 2.0); }, lg,
                     ref),
            1.0);
  // The ziggurat tail draws log(1 - u), u in [0, 1).
  EXPECT_LE(maxError([&] { return 1.0 - rng.uniform01(); }, lg, ref), 1.0);
  EXPECT_EQ(log(1.0), 0.0);
  EXPECT_EQ(log(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(log(-1.0)));
  EXPECT_EQ(log(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
}

TEST(DetMath, Log1pWithinOneUlp) {
  sim::Rng rng = sim::makeRng(2);
  const auto lg = [](double x) { return log1p(x); };
  const auto ref = [](long double x) { return std::log1p(x); };
  // sampleExponential's -u, u in [0, 1); then small arguments of both signs.
  EXPECT_LE(maxError([&] { return -rng.uniform01() - 0x1p-60; }, lg, ref),
            1.0);
  EXPECT_LE(maxError(
                [&] {
                  return (rng.uniform01() - 0.5) *
                         std::ldexp(1.0, -static_cast<int>(
                                             sim::sampleIndex(rng, 60)));
                },
                lg, ref),
            1.0);
  EXPECT_LE(maxError([&] { return wideMagnitude(rng, -4, 40); }, lg, ref),
            1.0);
  EXPECT_EQ(log1p(0.0), 0.0);
  EXPECT_EQ(log1p(-1.0), -std::numeric_limits<double>::infinity());
}

TEST(DetMath, Log10WithinOneUlp) {
  sim::Rng rng = sim::makeRng(3);
  // SINR ratios and dB conversions: 1e-12 .. 1e12.
  EXPECT_LE(maxError([&] { return wideMagnitude(rng, -40, 40); },
                     [](double x) { return log10(x); },
                     [](long double x) { return std::log10(x); }),
            1.0);
  for (int k = -20; k <= 22; ++k) {
    EXPECT_EQ(log10(std::pow(10.0, k)), k) << "10^" << k;
  }
}

TEST(DetMath, ExpWithinOneUlp) {
  sim::Rng rng = sim::makeRng(4);
  const auto ex = [](double x) { return exp(x); };
  const auto ref = [](long double x) { return std::exp(x); };
  // The normal range, then the normal kernels' -z^2/2 on [-40, 0].
  EXPECT_LE(maxError([&] { return sim::sampleUniform(rng, -708.0, 709.7); },
                     ex, ref),
            1.0);
  EXPECT_LE(maxError([&] { return sim::sampleUniform(rng, -40.0, 1.0); }, ex,
                     ref),
            1.0);
  EXPECT_EQ(exp(0.0), 1.0);
  EXPECT_EQ(exp(-746.0), 0.0);
  EXPECT_EQ(exp(710.0), std::numeric_limits<double>::infinity());
  EXPECT_GT(exp(-744.0), 0.0);  // subnormal, not flushed
  EXPECT_TRUE(std::isnan(exp(std::numeric_limits<double>::quiet_NaN())));
}

TEST(DetMath, Exp10WithinOneUlpAndExactAtPowersOfTen) {
  sim::Rng rng = sim::makeRng(5);
  // dB -> linear: x = dB / 10.
  EXPECT_LE(maxError([&] { return sim::sampleUniform(rng, -30.0, 30.0); },
                     [](double x) { return exp10(x); },
                     [](long double x) { return std::pow(10.0L, x); }),
            1.0);
  for (int k = 0; k <= 22; ++k) {
    EXPECT_EQ(exp10(k), std::pow(10.0, k)) << "10^" << k;
  }
}

/// The reference reduces degrees exactly, as sincosDeg does, so the long
/// double sin and cos see an argument of at most 45 degrees.
struct SinCosRef {
  long double sin;
  long double cos;
};
SinCosRef sincosRef(double deg) {
  const long double q = std::nearbyint(static_cast<long double>(deg) / 90);
  const long double x = (static_cast<long double>(deg) - 90 * q) * kPiL / 180;
  const long double s = std::sin(x);
  const long double c = std::cos(x);
  switch (static_cast<long long>(q) & 3) {
    case 0: return {s, c};
    case 1: return {c, -s};
    case 2: return {-s, -c};
    default: return {-c, s};
  }
}

TEST(DetMath, SinCosDegWithinOneUlp) {
  sim::Rng rng = sim::makeRng(7);
  double worst = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    // Headings in (-180, 180], then unreduced angles.
    const double deg = i % 2 == 0 ? sim::sampleUniform(rng, -180.0, 180.0)
                                  : sim::sampleUniform(rng, -1e6, 1e6);
    const SinCos got = sincosDeg(deg);
    const SinCosRef ref = sincosRef(deg);
    if (ref.sin != 0.0L) worst = std::max(worst, ulpError(got.sin, ref.sin));
    if (ref.cos != 0.0L) worst = std::max(worst, ulpError(got.cos, ref.cos));
  }
  EXPECT_LE(worst, 1.0);
  // Multiples of 90 degrees are exact.
  EXPECT_EQ(sincosDeg(0.0).sin, 0.0);
  EXPECT_EQ(sincosDeg(0.0).cos, 1.0);
  EXPECT_EQ(sincosDeg(90.0).sin, 1.0);
  EXPECT_EQ(sincosDeg(90.0).cos, 0.0);
  EXPECT_EQ(sincosDeg(180.0).cos, -1.0);
  EXPECT_EQ(sincosDeg(-90.0).sin, -1.0);
  EXPECT_EQ(sincosDeg(270.0).sin, -1.0);
  EXPECT_EQ(sincosDeg(360.0 * 1000).cos, 1.0);
  EXPECT_TRUE(std::isnan(sincosDeg(std::numeric_limits<double>::infinity()).sin));
}

TEST(DetMath, Atan2WithinOneUlp) {
  sim::Rng rng = sim::makeRng(8);
  double worst = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    // GPS displacements (km) in all quadrants, then extreme aspect ratios.
    double y = sim::sampleUniform(rng, -5.0, 5.0);
    double x = sim::sampleUniform(rng, -5.0, 5.0);
    if (i % 4 == 1) y = std::ldexp(y, -40);
    if (i % 4 == 2) x = std::ldexp(x, -40);
    if (i % 4 == 3) {
      y = std::ldexp(y, static_cast<int>(sim::sampleIndex(rng, 1200)) - 600);
      x = std::ldexp(x, static_cast<int>(sim::sampleIndex(rng, 1200)) - 600);
    }
    worst = std::max(worst, ulpError(atan2(y, x),
                                     std::atan2(static_cast<long double>(y),
                                                static_cast<long double>(x))));
  }
  EXPECT_LE(worst, 1.0);
  // IEEE special values.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(atan2(0.0, 1.0), 0.0);
  EXPECT_EQ(atan2(0.0, -1.0), std::atan2(0.0, -1.0));
  EXPECT_EQ(atan2(-0.0, -1.0), std::atan2(-0.0, -1.0));
  EXPECT_EQ(atan2(1.0, 0.0), std::atan2(1.0, 0.0));
  EXPECT_EQ(atan2(-1.0, 0.0), std::atan2(-1.0, 0.0));
  EXPECT_EQ(atan2(1.0, 1.0), std::atan2(1.0, 1.0));
  EXPECT_EQ(atan2(kInf, kInf), std::atan2(kInf, kInf));
  EXPECT_EQ(atan2(-kInf, -kInf), std::atan2(-kInf, -kInf));
  EXPECT_EQ(atan2(1.0, -kInf), std::atan2(1.0, -kInf));
  EXPECT_EQ(atan2(kInf, 3.0), std::atan2(kInf, 3.0));
  EXPECT_TRUE(std::isnan(atan2(std::nan(""), 1.0)));
}

TEST(DetMath, HypotWithinTwoUlps) {
  sim::Rng rng = sim::makeRng(9);
  double worst = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = sim::sampleUniform(rng, -50.0, 50.0);
    const double y = sim::sampleUniform(rng, -50.0, 50.0);
    worst = std::max(worst, ulpError(hypot(x, y),
                                     std::hypot(static_cast<long double>(x),
                                                static_cast<long double>(y))));
  }
  EXPECT_LE(worst, 2.0);
  EXPECT_EQ(hypot(3.0, 4.0), 5.0);
}

/// The tables are built at compile time and match their definitions.
TEST(DetMath, CompileTimeTablesMatchTheirDefinitions) {
  for (int j = 0; j < 128; ++j) {
    const detail::DD t = detail::kExp2Table[static_cast<std::size_t>(j)];
    const long double ref = std::exp2(static_cast<long double>(j) / 128);
    EXPECT_LE(std::fabs(static_cast<long double>(t.hi) + t.lo - ref),
              0x1p-62L * ref)
        << "2^(" << j << "/128)";
  }
  for (int i = 0; i <= 8; ++i) {
    const detail::DD t = detail::kAtanTable[static_cast<std::size_t>(i)];
    const long double ref = std::atan(static_cast<long double>(i) / 8);
    EXPECT_LE(std::fabs(static_cast<long double>(t.hi) + t.lo - ref), 0x1p-63L)
        << "atan(" << i << "/8)";
  }
  static_assert(exp(0.0) == 1.0);
  static_assert(log(1.0) == 0.0);
  static_assert(sincosDeg(90.0).sin == 1.0);
}

}  // namespace
}  // namespace facs::detmath
