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
/// standard library: the bits a stream produces depend only on IEEE double
/// arithmetic (sqrt included) and the C math library's log and log1p, never
/// on which standard library implements <random>. This header depends on
/// nothing but <cmath> and <cstdint>, so every layer (mobility, cellular,
/// predict, sim) can include it.
///
/// Generator: xoshiro256** (Blackman & Vigna), 32 bytes of state, plus the
/// cached second value of the last Marsaglia polar pair.
///
/// Distributions (u is uniform01(), one 64-bit draw each):
///   uniform01          u = (x >> 11) * 2^-53, on [0, 1)
///   sampleUniform      lo + (hi - lo) * u
///   sampleExponential  -mean * log1p(-u)
///   sampleIndex        Lemire's multiply-shift on the top 32 bits, with
///                      rejection of the biased low products (exact)
///   sampleNormal       Marsaglia polar: v1 = 2u - 1, v2 = 2u - 1 until
///                      0 < s = v1^2 + v2^2 < 1; f = sqrt(-2 log(s) / s);
///                      returns v1 * f and keeps v2 * f as the spare that
///                      the next normal draw returns without drawing.

#include <cmath>
#include <cstdint>

namespace facs::sim {

/// SplitMix64 scramble — the canonical seed expander.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// xoshiro256** with the pending polar spare. Copying an Rng copies the
/// whole stream position, spare included.
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

  /// Standard normal by the Marsaglia polar method (see the file comment).
  [[nodiscard]] double standardNormal() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double v1;
    double v2;
    double s;
    do {
      v1 = 2.0 * uniform01() - 1.0;
      v2 = 2.0 * uniform01() - 1.0;
      s = v1 * v1 + v2 * v2;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v2 * f;
    has_spare_ = true;
    return v1 * f;
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// Engine for (seed, stream); distinct streams are statistically
/// independent for any practical purpose.
[[nodiscard]] constexpr Rng makeRng(std::uint64_t seed,
                                    std::uint64_t stream = 0) noexcept {
  return Rng{splitmix64(splitmix64(seed) ^
                        splitmix64(stream * 0xA5A5A5A5ULL + 1))};
}

/// Exponential variate with the given mean (> 0): -mean * log1p(-u).
[[nodiscard]] inline double sampleExponential(Rng& rng, double mean) noexcept {
  return -mean * std::log1p(-rng.uniform01());
}

/// Uniform variate over [lo, hi): lo + (hi - lo) * u.
[[nodiscard]] constexpr double sampleUniform(Rng& rng, double lo,
                                             double hi) noexcept {
  return lo + (hi - lo) * rng.uniform01();
}

/// Normal variate: mean + sigma * z, z from the stream's polar pairs.
[[nodiscard]] inline double sampleNormal(Rng& rng, double mean,
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
