#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace vor::util {

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  // splitmix64 expansion guarantees a non-zero state even for seed == 0.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1) with full double granularity.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire-style rejection: uniform without modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Normal(double mean, double stddev) {
  const double u1 = 1.0 - NextDouble();
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

Rng Rng::Fork(std::uint64_t stream) const {
  // Derive a child seed by mixing the master seed with the stream index.
  std::uint64_t sm = seed_ ^ (0x9e3779b97f4a7c15ULL + stream);
  sm = SplitMix64(sm) ^ stream;
  return Rng{SplitMix64(sm)};
}

}  // namespace vor::util
