#pragma once
/// \file rng.hpp
/// Deterministic random-number plumbing for reproducible simulations.
///
/// Every run derives all randomness from one user-visible seed. Independent
/// streams (per replication, per call, per component) are keyed by
/// (seed, stream) and split with SplitMix64, so adding a consumer never
/// perturbs the draws of another.
///
/// The generator and every distribution are defined here, not by the
/// standard library, and their only elementary functions (log, log1p, exp)
/// come from sim/detmath.hpp: the bits a stream produces depend on IEEE
/// double arithmetic alone, never on which standard library implements
/// <random> or which C math library (or which of its CPU-dispatched
/// kernels) computes a logarithm. This header depends on nothing but
/// detmath.hpp and <cstdint>, so every layer (mobility, cellular, predict,
/// sim) can include it.
///
/// Generator: xoshiro256** (Blackman & Vigna), 32 bytes of state and
/// nothing else.
///
/// Distributions (u is uniform01(), one 64-bit draw each):
///   uniform01          u = (x >> 11) * 2^-53, on [0, 1)
///   sampleUniform      lo + (hi - lo) * u
///   sampleExponential  -mean * log1p(-u)
///   sampleIndex        Lemire's multiply-shift on the top 32 bits, with
///                      rejection of the biased low products (exact)
///   sampleNormal       Marsaglia & Tsang's ziggurat (2000) with 256
///                      layers: one draw x gives the layer i = x & 255 and
///                      a signed v = (x as int64 >> 11) * 2^-52 in [-1, 1);
///                      z = v * X[i] is returned when |z| < X[i+1]. Else
///                      layer 0 samples the tail beyond R, and the other
///                      layers accept z when F[i] + (F[i+1] - F[i]) u <
///                      exp(-z^2/2), redrawing otherwise.

#include <array>
#include <cstdint>

#include "sim/detmath.hpp"

namespace facs::sim {

/// SplitMix64 scramble — the canonical seed expander.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The ziggurat's 256 layers for the half-normal f(x) = exp(-x^2/2), each
/// of area V (Marsaglia & Tsang 2000). Layer i >= 1 is the rectangle
/// [0, X[i]] x [F[i], F[i+1]]; layer 0 is the base strip [0, X[0]] x
/// [0, F[1]] whose part past R = X[1] stands for the tail. X falls from
/// X[0] = V / f(R) to X[256] = 0.
struct ZigguratTables {
  /// The right edge of the base layer: the tail's start.
  static constexpr double kR = 0x1.d3bb48209ad33p+1;   // 3.654152885361009
  /// Each layer's area: R f(R) + the tail integral of f past R.
  static constexpr double kV = 0x1.43016a5a43732p-8;   // 0.004928673233974655
  std::array<double, 257> x{};
  std::array<double, 257> f{};
};

namespace detail {

/// sqrt by Newton's method, for compile-time table building only.
[[nodiscard]] constexpr double newtonSqrt(double a) noexcept {
  double y = a > 1.0 ? a : 1.0;
  for (int i = 0; i < 200; ++i) {
    const double next = 0.5 * (y + a / y);
    if (next >= y) break;
    y = next;
  }
  return y;
}

/// X[i+1] = f^-1(f(X[i]) + V / X[i]): each layer has area V.
[[nodiscard]] constexpr ZigguratTables buildZiggurat() noexcept {
  constexpr double kR = ZigguratTables::kR;
  constexpr double kV = ZigguratTables::kV;
  ZigguratTables t;
  const double f_r = detmath::exp(-0.5 * kR * kR);
  t.x[0] = kV / f_r;
  t.x[1] = kR;
  t.f[0] = 0.0;
  t.f[1] = f_r;
  for (std::size_t i = 1; i < 255; ++i) {
    t.f[i + 1] = t.f[i] + kV / t.x[i];
    t.x[i + 1] = newtonSqrt(-2.0 * detmath::log(t.f[i + 1]));
  }
  t.x[256] = 0.0;
  t.f[256] = 1.0;
  return t;
}

}  // namespace detail

inline constexpr ZigguratTables kZiggurat = detail::buildZiggurat();

/// xoshiro256**. Copying an Rng copies the whole stream position.
class Rng {
 public:
  /// State seeded as the SplitMix64 sequence of \p key (never all zero:
  /// SplitMix64 is a bijection, so at most one of the four words is 0).
  explicit constexpr Rng(std::uint64_t key = 0) noexcept
      : s_{splitmix64(key), splitmix64(key + 0x9E3779B97F4A7C15ULL),
           splitmix64(key + 2 * 0x9E3779B97F4A7C15ULL),
           splitmix64(key + 3 * 0x9E3779B97F4A7C15ULL)} {}

  /// Next raw 64-bit draw.
  constexpr std::uint64_t operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform on [0, 1) from the top 53 bits of one draw.
  [[nodiscard]] constexpr double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Standard normal by the ziggurat (see the file comment).
  [[nodiscard]] constexpr double standardNormal() noexcept {
    for (;;) {
      const std::uint64_t bits = (*this)();
      const std::size_t i = bits & 0xFF;
      const double v =
          static_cast<double>(static_cast<std::int64_t>(bits) >> 11) *
          0x1.0p-52;
      const double z = v * kZiggurat.x[i];
      if ((z < 0.0 ? -z : z) < kZiggurat.x[i + 1]) return z;
      if (i == 0) return tail(v < 0.0);
      const double y =
          kZiggurat.f[i] + (kZiggurat.f[i + 1] - kZiggurat.f[i]) * uniform01();
      if (y < detmath::exp(-0.5 * z * z)) return z;
    }
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// A normal beyond R, by Marsaglia's exponential rejection: a = -log(u1)
  /// / R and b = -log(u2), u in (0, 1], until 2b >= a^2; then R + a.
  [[nodiscard]] constexpr double tail(bool negative) noexcept {
    constexpr double kR = ZigguratTables::kR;
    double a = 0.0;
    double b = 0.0;
    do {
      a = -detmath::log(1.0 - uniform01()) / kR;
      b = -detmath::log(1.0 - uniform01());
    } while (b + b < a * a);
    return negative ? -(kR + a) : kR + a;
  }

  std::uint64_t s_[4];
};

/// Engine for (seed, stream); distinct streams are statistically
/// independent for any practical purpose.
[[nodiscard]] constexpr Rng makeRng(std::uint64_t seed,
                                    std::uint64_t stream = 0) noexcept {
  return Rng{splitmix64(splitmix64(seed) ^
                        splitmix64(stream * 0xA5A5A5A5ULL + 1))};
}

/// Exponential variate with the given mean (> 0): -mean * log1p(-u).
[[nodiscard]] constexpr double sampleExponential(Rng& rng,
                                                 double mean) noexcept {
  return -mean * detmath::log1p(-rng.uniform01());
}

/// Uniform variate over [lo, hi): lo + (hi - lo) * u.
[[nodiscard]] constexpr double sampleUniform(Rng& rng, double lo,
                                             double hi) noexcept {
  return lo + (hi - lo) * rng.uniform01();
}

/// Normal variate: mean + sigma * z, z a ziggurat standard normal.
[[nodiscard]] constexpr double sampleNormal(Rng& rng, double mean,
                                            double sigma) noexcept {
  return mean + sigma * rng.standardNormal();
}

/// Uniform index in [0, n), n in [1, 2^32), exactly unbiased: m = (x >> 32)
/// * n; the low 32 bits of m below 2^32 mod n are rejected and redrawn,
/// then the index is m >> 32.
[[nodiscard]] constexpr std::uint32_t sampleIndex(Rng& rng,
                                                  std::uint32_t n) noexcept {
  std::uint64_t m = (rng() >> 32) * n;
  if (static_cast<std::uint32_t>(m) < n) {
    const std::uint32_t threshold = (0u - n) % n;
    while (static_cast<std::uint32_t>(m) < threshold) {
      m = (rng() >> 32) * n;
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

}  // namespace facs::sim
