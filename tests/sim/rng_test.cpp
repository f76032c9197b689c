#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>

namespace facs::sim {
namespace {

TEST(Rng, FitsInFortyEightBytes) { EXPECT_LE(sizeof(Rng), 48u); }

/// The first values of three streams, pinned bit for bit. Every det_*
/// baseline rests on these: if a compiler, flag or library change alters
/// them, this fails before any baseline diff does.
struct Golden {
  std::uint64_t seed;
  std::uint64_t stream;
  std::array<std::uint64_t, 4> raw;
  double uniform;
  double exponential;  ///< Mean 1.
  std::array<double, 2> normal;  ///< One polar pair.
  std::uint32_t index19;
};

constexpr std::array<Golden, 3> kGolden{{
    {1, 0,
     {0xFB5405F7BD79C540ULL, 0x780C98E26CEA5883ULL, 0x2A146E0980FEBC66ULL,
      0x4851477DB8791FCAULL},
     0x1.f6a80bef7af38p-1, 0x1.003b945bfa597p+2,
     {0x1.7eeff54522888p-2, -0x1.8affa99e0c7f8p-6}, 18},
    {1, 16,
     {0x9D328064C4D5CCB7ULL, 0xB1949613DD4D3F52ULL, 0x702C4C9C45D0D9DAULL,
      0xA5630D37CAE250E9ULL},
     0x1.3a6500c989ab9p-1, 0x1.e77363a5411fp-1,
     {0x1.d0a27264a338dp-1, 0x1.8a808e695ee85p+0}, 11},
    {42, 1ULL << 40,
     {0xDE5C7BF50647279EULL, 0xC5F52F1BB539F4D6ULL, 0x6FE1C711775F1E87ULL,
      0x1C793AABAE525B06ULL},
     0x1.bcb8f7ea0c8e4p-1, 0x1.03c6a1b39cfa3p+1,
     {0x1.e22432ce76b08p-2, 0x1.657373b640872p-2}, 16},
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
  EXPECT_EQ(sampleExponential(a, 2.5), -2.5 * std::log1p(-b.uniform01()));
  EXPECT_EQ(sampleNormal(a, 1.0, 4.0), 1.0 + 4.0 * b.standardNormal());
  EXPECT_EQ(sampleNormal(a, -2.0, 0.5), -2.0 + 0.5 * b.standardNormal());
}

TEST(Rng, StreamsAreDistinct) {
  EXPECT_NE(makeRng(1, 0)(), makeRng(1, 1)());
  EXPECT_NE(makeRng(1, 0)(), makeRng(2, 0)());
  EXPECT_EQ(makeRng(9, 4)(), makeRng(9, 4)());
}

/// The spare of a polar pair lives in the Rng: a copy taken between the two
/// halves returns the same second value, and neither draws for it.
TEST(Rng, CopyBetweenPolarHalvesKeepsTheSpare) {
  Rng a = makeRng(7, 3);
  const double first = a.standardNormal();
  Rng b = a;
  const double second = a.standardNormal();
  EXPECT_EQ(b.standardNormal(), second);
  EXPECT_NE(first, second);
  EXPECT_EQ(a(), b());  // the spare consumed no raw draw in either copy
  EXPECT_EQ(a.standardNormal(), b.standardNormal());
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
