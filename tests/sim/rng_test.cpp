#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

namespace facs::sim {
namespace {

/// The generator state and nothing else: the ziggurat keeps no spare.
TEST(Rng, FitsInThirtyTwoBytes) { EXPECT_EQ(sizeof(Rng), 32u); }

/// The first values of three streams, pinned bit for bit. Every det_*
/// baseline rests on these: if a compiler, flag or library change alters
/// them, this fails before any baseline diff does.
struct Golden {
  std::uint64_t seed;
  std::uint64_t stream;
  std::array<std::uint64_t, 4> raw;
  double uniform;
  double exponential;  ///< Mean 1.
  std::array<double, 2> normal;  ///< The first two ziggurat normals.
  std::uint32_t index19;
};

constexpr std::array<Golden, 3> kGolden{{
    {1, 0,
     {0xFB5405F7BD79C540ULL, 0x780C98E26CEA5883ULL, 0x2A146E0980FEBC66ULL,
      0x4851477DB8791FCAULL},
     0x1.f6a80bef7af38p-1, 0x1.003b945bfa597p+2,
     {-0x1.2ed69cf3ef87dp-4, 0x1.6bc2b5cf72b26p+0}, 18},
    {1, 16,
     {0x9D328064C4D5CCB7ULL, 0xB1949613DD4D3F52ULL, 0x702C4C9C45D0D9DAULL,
      0xA5630D37CAE250E9ULL},
     0x1.3a6500c989ab9p-1, 0x1.e77363a5411f1p-1,
     {-0x1.cb225e0508895p-1, -0x1.254cf9ad5ba31p+0}, 11},
    {42, 1ULL << 40,
     {0xDE5C7BF50647279EULL, 0xC5F52F1BB539F4D6ULL, 0x6FE1C711775F1E87ULL,
      0x1C793AABAE525B06ULL},
     0x1.bcb8f7ea0c8e4p-1, 0x1.03c6a1b39cfa3p+1,
     {-0x1.6704dbc80c8a4p-2, -0x1.aaade98278aafp-2}, 16},
}};

TEST(Rng, GoldenStreams) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE("makeRng(" + std::to_string(g.seed) + ", " +
                 std::to_string(g.stream) + ")");
    Rng raw = makeRng(g.seed, g.stream);
    for (const std::uint64_t expected : g.raw) EXPECT_EQ(raw(), expected);

    Rng u = makeRng(g.seed, g.stream);
    EXPECT_EQ(u.uniform01(), g.uniform);
    Rng e = makeRng(g.seed, g.stream);
    EXPECT_EQ(sampleExponential(e, 1.0), g.exponential);
    Rng n = makeRng(g.seed, g.stream);
    EXPECT_EQ(n.standardNormal(), g.normal[0]);
    EXPECT_EQ(n.standardNormal(), g.normal[1]);
    Rng i = makeRng(g.seed, g.stream);
    EXPECT_EQ(sampleIndex(i, 19), g.index19);
  }
}

TEST(Rng, ScaledDrawsFollowTheirFormulas) {
  Rng a = makeRng(5, 2);
  Rng b = a;
  EXPECT_EQ(sampleUniform(a, -3.0, 5.0), -3.0 + 8.0 * b.uniform01());
  EXPECT_EQ(sampleExponential(a, 2.5),
            -2.5 * detmath::log1p(-b.uniform01()));
  EXPECT_EQ(sampleNormal(a, 1.0, 4.0), 1.0 + 4.0 * b.standardNormal());
  EXPECT_EQ(sampleNormal(a, -2.0, 0.5), -2.0 + 0.5 * b.standardNormal());
}

TEST(Rng, StreamsAreDistinct) {
  EXPECT_NE(makeRng(1, 0)(), makeRng(1, 1)());
  EXPECT_NE(makeRng(1, 0)(), makeRng(2, 0)());
  EXPECT_EQ(makeRng(9, 4)(), makeRng(9, 4)());
}

/// Mean and variance over 10^6 draws, each within about five standard
/// errors of the distribution's moments.
struct Moments {
  double mean = 0.0;
  double variance = 0.0;
};

template <class Draw>
Moments moments(Draw&& draw) {
  constexpr int kDraws = 1'000'000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = draw();
    sum += x;
    sum_sq += x * x;
  }
  Moments m;
  m.mean = sum / kDraws;
  m.variance = sum_sq / kDraws - m.mean * m.mean;
  return m;
}

TEST(RngDistributions, UniformMoments) {
  Rng rng = makeRng(101);
  const Moments m = moments([&] { return sampleUniform(rng, -2.0, 6.0); });
  EXPECT_NEAR(m.mean, 2.0, 0.012);              // var 64/12, se 0.0023
  EXPECT_NEAR(m.variance, 64.0 / 12.0, 0.03);
}

TEST(RngDistributions, ExponentialMoments) {
  Rng rng = makeRng(102);
  const Moments m = moments([&] { return sampleExponential(rng, 3.0); });
  EXPECT_NEAR(m.mean, 3.0, 0.015);              // se 0.003
  EXPECT_NEAR(m.variance, 9.0, 0.15);
}

TEST(RngDistributions, NormalMoments) {
  Rng rng = makeRng(103);
  const Moments m = moments([&] { return sampleNormal(rng, 1.5, 2.0); });
  EXPECT_NEAR(m.mean, 1.5, 0.01);               // se 0.002
  EXPECT_NEAR(m.variance, 4.0, 0.03);
}

/// Standard normal CDF.
double normalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// The ziggurat's layers all have area V, the top one included, and V is
/// the base layer's R f(R) plus the tail integral past R.
TEST(Ziggurat, LayersHaveEqualAreaAndCloseAtTheTop) {
  const ZigguratTables& z = kZiggurat;
  constexpr double kR = ZigguratTables::kR;
  constexpr double kV = ZigguratTables::kV;
  const double tail = std::sqrt(std::acos(-1.0) / 2.0) *
                      std::erfc(kR / std::sqrt(2.0));
  EXPECT_NEAR(kR * std::exp(-0.5 * kR * kR) + tail, kV, 1e-17);
  EXPECT_EQ(z.x[1], kR);
  EXPECT_NEAR(z.x[0] * z.f[1], kV, 1e-18);
  for (std::size_t i = 1; i < 256; ++i) {
    EXPECT_GT(z.x[i], z.x[i + 1]) << i;
    EXPECT_LT(z.f[i], z.f[i + 1]) << i;
    EXPECT_NEAR(z.x[i] * (z.f[i + 1] - z.f[i]), kV, 1e-15) << i;
    EXPECT_NEAR(z.f[i], std::exp(-0.5 * z.x[i] * z.x[i]), 1e-15) << i;
  }
  EXPECT_EQ(z.x[256], 0.0);
  EXPECT_EQ(z.f[256], 1.0);
}

/// Pearson's chi-square of 10^6 normals over 34 bins (width 0.25 on
/// [-4, 4], plus the two tails). With 33 degrees of freedom the 99.99th
/// percentile is 72.0.
TEST(Ziggurat, NormalsPassAChiSquareTest) {
  Rng rng = makeRng(105);
  constexpr int kDraws = 1'000'000;
  std::array<int, 34> counts{};
  for (int i = 0; i < kDraws; ++i) {
    const double z = rng.standardNormal();
    const double bin =
        z < -4.0 ? 0.0 : (z >= 4.0 ? 33.0 : 1.0 + std::floor((z + 4.0) * 4.0));
    ++counts.at(static_cast<std::size_t>(bin));
  }
  double chi2 = 0.0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    const double edge = -4.0 + 0.25 * static_cast<double>(k);
    const double lo = k == 0 ? -INFINITY : edge - 0.25;
    const double hi = k == 33 ? INFINITY : edge;
    const double expected = kDraws * (normalCdf(hi) - normalCdf(lo));
    chi2 += (counts[k] - expected) * (counts[k] - expected) / expected;
  }
  EXPECT_LT(chi2, 72.0);
  RecordProperty("chi2", std::to_string(chi2));
}

/// Draws beyond the base layer's edge R come only from the tail sampler:
/// their share, their sign balance and their mean excess over R match the
/// normal tail (2 Q(R) = 2.58e-4, E[|z| - R | |z| > R] = 0.247).
TEST(Ziggurat, DrawsBeyondTheBaseLayerFollowTheTail) {
  Rng rng = makeRng(106);
  constexpr int kDraws = 4'000'000;
  constexpr double kR = ZigguratTables::kR;
  int beyond = 0;
  int negative = 0;
  double excess = 0.0;
  double widest = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double z = rng.standardNormal();
    if (std::abs(z) < kR) continue;
    ++beyond;
    if (z < 0.0) ++negative;
    excess += std::abs(z) - kR;
    widest = std::max(widest, std::abs(z));
  }
  const double q = 1.0 - normalCdf(kR);
  const double expected = 2.0 * q * kDraws;  // ~1033
  EXPECT_NEAR(beyond, expected, 5.0 * std::sqrt(expected));
  EXPECT_NEAR(negative, beyond / 2.0, 5.0 * std::sqrt(beyond / 4.0));
  // Mean excess: phi(R) / Q(R) - R; the excess's sd is about 0.23.
  const double phi =
      std::exp(-0.5 * kR * kR) / std::sqrt(2.0 * std::acos(-1.0));
  EXPECT_NEAR(excess / beyond, phi / q - kR, 5.0 * 0.23 / std::sqrt(beyond));
  EXPECT_GT(widest, kR + 0.5);
}

TEST(RngDistributions, IndexMomentsAndRange) {
  Rng rng = makeRng(104);
  std::array<int, 7> hits{};
  const Moments m = moments([&] {
    const std::uint32_t i = sampleIndex(rng, 7);
    ++hits.at(i);
    return static_cast<double>(i);
  });
  EXPECT_NEAR(m.mean, 3.0, 0.01);               // var 4, se 0.002
  EXPECT_NEAR(m.variance, 4.0, 0.03);
  for (const int h : hits) EXPECT_NEAR(h, 1'000'000 / 7, 2000);

  for (int k = 0; k < 100; ++k) EXPECT_EQ(sampleIndex(rng, 1), 0u);
}

}  // namespace
}  // namespace facs::sim
