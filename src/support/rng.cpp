#include "support/rng.hpp"

#include <bit>

namespace radiocast {

namespace {

/// A polynomial over GF(2) of degree < 256: bit i % 64 of word i / 64 is the
/// coefficient of x^i.
using Poly = std::array<std::uint64_t, 4>;

bool coefficient(const Poly& a, unsigned i) {
  return ((a[i / 64] >> (i % 64)) & 1) != 0;
}

/// Berlekamp–Massey over GF(2): the shortest linear recurrence generating
/// `bits`.  For the xoshiro256 bit sequence it has length 256, and the
/// reciprocal of its connection polynomial is the transition's
/// characteristic polynomial P(x) = x^256 + low(x); returns `low`.
Poly characteristic_low(const std::array<std::uint8_t, 512>& bits) {
  std::array<std::uint8_t, 513> c{}, b{}, t{};
  c[0] = b[0] = 1;
  std::size_t len = 0, shift = 1;
  for (std::size_t n = 0; n < bits.size(); ++n) {
    std::uint8_t d = bits[n];
    for (std::size_t i = 1; i <= len; ++i) d ^= c[i] & bits[n - i];
    if (d == 0) {
      ++shift;
      continue;
    }
    t = c;
    for (std::size_t i = 0; i + shift < c.size(); ++i) c[i + shift] ^= b[i];
    if (2 * len <= n) {
      len = n + 1 - len;
      b = t;
      shift = 1;
    } else {
      ++shift;
    }
  }
  RC_ASSERT_MSG(len == 256, "xoshiro256 recurrence must have degree 256");
  // s_{t+256} = sum c_i s_{t+256-i}  =>  P(x) = x^256 + sum c_i x^(256-i).
  Poly low{};
  for (unsigned j = 0; j < 256; ++j) {
    low[j / 64] |= std::uint64_t{c[256 - j]} << (j % 64);
  }
  return low;
}

/// a·x mod P.
Poly times_x(const Poly& a, const Poly& low) {
  const bool carry = coefficient(a, 255);
  Poly r{};
  for (std::size_t w = 0; w < 4; ++w) {
    r[w] = (a[w] << 1) | (w > 0 ? a[w - 1] >> 63 : 0);
  }
  if (carry) {
    for (std::size_t w = 0; w < 4; ++w) r[w] ^= low[w];
  }
  return r;
}

/// Spreads the 32 bits of `v` to the even bit positions of a 64-bit word:
/// squaring over GF(2) has no cross terms, so a(x)^2 = sum a_i x^(2i).
std::uint64_t spread(std::uint64_t v) {
  v = (v | (v << 16)) & 0x0000ffff0000ffffULL;
  v = (v | (v << 8)) & 0x00ff00ff00ff00ffULL;
  v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  v = (v | (v << 2)) & 0x3333333333333333ULL;
  v = (v | (v << 1)) & 0x5555555555555555ULL;
  return v;
}

/// a² mod P.
Poly square(const Poly& a, const Poly& low) {
  std::array<std::uint64_t, 8> wide{};
  for (std::size_t w = 0; w < 4; ++w) {
    wide[2 * w] = spread(a[w] & 0xffffffffULL);
    wide[2 * w + 1] = spread(a[w] >> 32);
  }
  // x^i = x^(i-256)·x^256 = x^(i-256)·low(x) mod P, from the top down, so
  // every folded term lands below the bit being cleared.
  for (unsigned top = 8; top-- > 4;) {
    while (wide[top] != 0) {
      const auto bit = static_cast<unsigned>(63 - std::countl_zero(wide[top]));
      wide[top] ^= std::uint64_t{1} << bit;
      const unsigned word = top - 4;
      for (std::size_t w = 0; w < 4; ++w) {
        wide[word + w] ^= low[w] << bit;
        if (bit != 0) wide[word + w + 1] ^= low[w] >> (64 - bit);
      }
    }
  }
  return {wide[0], wide[1], wide[2], wide[3]};
}

}  // namespace

void Rng::jump(std::uint64_t k) noexcept {
  static const Poly low = [] {
    State s = Rng(1).state_;
    std::array<std::uint8_t, 512> bits{};
    for (auto& bit : bits) {
      bit = static_cast<std::uint8_t>(s[0] & 1);
      advance(s);
    }
    return characteristic_low(bits);
  }();
  // r = x^k mod P by square-and-multiply from the top bit of k.
  Poly r{1, 0, 0, 0};
  for (int bit = 63; bit >= 0; --bit) {
    r = square(r, low);
    if ((k >> bit) & 1) r = times_x(r, low);
  }
  // M^k·s = r(M)·s = sum r_i M^i s, evaluated by Horner from r_255 down.
  State acc{};
  for (unsigned i = 256; i-- > 0;) {
    advance(acc);
    if (coefficient(r, i)) {
      for (std::size_t w = 0; w < 4; ++w) acc[w] ^= state_[w];
    }
  }
  state_ = acc;
}

}  // namespace radiocast
