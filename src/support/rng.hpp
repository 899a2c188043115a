/// \file rng.hpp
/// \brief Deterministic, seedable pseudo-random number generation.
///
/// Experiments must be bit-reproducible across runs and across machines, so we
/// implement our own small generators (SplitMix64 for seeding, xoshiro256** as
/// the workhorse) instead of relying on `std::mt19937` distribution behaviour,
/// which the standard leaves implementation-defined for `std::uniform_*`.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "support/contracts.hpp"

namespace radiocast {

/// SplitMix64: tiny generator used to expand a 64-bit seed into state for
/// larger generators.  Reference: Steele, Lea, Flood (2014).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 256-bit-state generator
/// (Blackman & Vigna, 2018).  Deterministic for a given seed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9d2c5680u) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    advance(state_);
    return result;
  }

  /// Advances the state by exactly `k` `next()` calls in O(log k) time:
  /// the state transition M is linear over GF(2), so M^k = r(M) with
  /// r(x) = x^k mod P(x), P the transition's degree-256 characteristic
  /// polynomial, and r(M)·s is 256 Horner steps (Haramoto et al. 2008).
  /// Lets a parallel consumer start each chunk of one stream at its exact
  /// offset.
  void jump(std::uint64_t k) noexcept;

  /// Uniform integer in [0, bound).  Uses Lemire's unbiased multiply-shift
  /// rejection method.
  std::uint64_t below(std::uint64_t bound) noexcept {
    RC_ASSERT(bound > 0);
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (l < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    RC_ASSERT(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept { return unit(next()); }

  /// The double `uniform()` returns for the draw `x`: its top 53 bits
  /// scaled by 2^-53, which is exact.
  static constexpr double unit(std::uint64_t x) noexcept {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p`.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// The integer t with `unit(x) < p` exactly when `(x >> 11) < t`, for
  /// every draw x and every p in [0, 1]: unit(x) = k·2^-53 with k = x >> 11,
  /// p·2^53 is exact in a double, and for integer k, k < p·2^53 holds
  /// exactly when k < ceil(p·2^53).  Hoisted out of a loop, it turns each
  /// `bernoulli(p)` into one shift and one integer compare.
  static std::uint64_t bernoulli_threshold(double p) noexcept {
    RC_ASSERT(p >= 0.0 && p <= 1.0);
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// Fisher–Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) noexcept {
    const auto n = c.size();
    if (n < 2) return;
    for (std::size_t i = n - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i + 1));
      using std::swap;
      swap(c[i], c[j]);
    }
  }

  /// Derives an independent child generator; used to give each parallel task
  /// its own stream without sharing state.
  Rng split() noexcept { return Rng(next() ^ 0xa0761d6478bd642fULL); }

  /// Equal generators produce equal streams.
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  using State = std::array<std::uint64_t, 4>;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// One xoshiro256 state transition (the linear map M; `next()` adds the
  /// ** output scrambler on top).
  static constexpr void advance(State& s) noexcept {
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
  }

  State state_{};
};

}  // namespace radiocast
