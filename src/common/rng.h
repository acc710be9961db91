// Deterministic pseudo-random number generation for reproducible simulations.
//
// We avoid std::mt19937 + std::distributions because distribution outputs are
// not specified bit-exactly across standard library implementations; this
// generator (xoshiro256**) plus hand-rolled distributions makes every run
// reproducible from its seed on any platform.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/logging.h"

namespace hoplite {

/// xoshiro256** seeded via splitmix64; deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) {
      word = SplitMix64(sm);
    }
  }

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t NextU64() noexcept {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double NextDouble() noexcept {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound).
  [[nodiscard]] std::uint64_t NextBounded(std::uint64_t bound) noexcept {
    HOPLITE_CHECK_GT(bound, 0u);
    // Lemire's multiply-shift rejection method: unbiased and fast.
    std::uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t NextInRange(std::int64_t lo, std::int64_t hi) noexcept {
    HOPLITE_CHECK_LE(lo, hi);
    return lo + static_cast<std::int64_t>(
                    NextBounded(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double NextDoubleInRange(double lo, double hi) noexcept {
    return lo + (hi - lo) * NextDouble();
  }

  /// Exponential with the given mean (for arrival processes).
  [[nodiscard]] double NextExponential(double mean) noexcept {
    // 1 - NextDouble() is in (0, 1], so the log is finite.
    return -mean * std::log(1.0 - NextDouble());
  }

  /// Fisher–Yates shuffle of a random-access container.
  template <typename Container>
  void Shuffle(Container& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(NextBounded(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child stream (for per-node RNGs).
  [[nodiscard]] Rng Fork() noexcept { return Rng{NextU64() ^ 0x9e3779b97f4a7c15ull}; }

 private:
  [[nodiscard]] static std::uint64_t SplitMix64(std::uint64_t& state) noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  [[nodiscard]] static constexpr std::uint64_t Rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace hoplite
