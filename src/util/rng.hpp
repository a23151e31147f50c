// Deterministic pseudo-random number generation.
//
// Everything stochastic in this library (catalog sizes, request times,
// Zipf draws, random topologies in tests) flows from a single 64-bit seed
// through this generator, so any experiment is reproducible bit-for-bit
// from the seed printed in its output header.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded via splitmix64.
// We deliberately avoid std::mt19937 + std::*_distribution because their
// outputs are not specified identically across standard libraries.
#pragma once

#include <array>
#include <cstdint>

namespace vor::util {

/// splitmix64 step; used for seeding and for cheap hash mixing.
[[nodiscard]] std::uint64_t SplitMix64(std::uint64_t& state);

/// xoshiro256** engine with explicit, portable output semantics.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit word.
  std::uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound) with rejection to avoid modulo bias.
  /// bound must be > 0.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box-Muller (no cached spare: keeps state minimal).
  double Normal(double mean, double stddev);

  /// Jump to an independent substream identified by `stream`.  Used to give
  /// each parallel sweep shard its own statistically independent generator
  /// derived from the same master seed.
  [[nodiscard]] Rng Fork(std::uint64_t stream) const;

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_ = 0;
};

}  // namespace vor::util
