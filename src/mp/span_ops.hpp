// Low-level multiprecision kernels on little-endian limb spans.
//
// Conventions:
//   * numbers are arrays of limbs, limbs[0] least significant (so the paper's
//     most-significant word x1 is limbs[size-1]);
//   * a span is "normalized" when its top limb is nonzero; size 0 represents
//     the value 0;
//   * every function documents its aliasing requirements.
//
// These kernels back BigInt, the Euclidean algorithm family, RSA and the
// batch-GCD trees. They are header-only templates so the d = 16/32/64 word
// sizes all compile from one source of truth.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <vector>

#include "mp/limb_traits.hpp"

namespace bulkgcd::mp {

/// Size after stripping high zero limbs.
template <LimbType Limb>
constexpr std::size_t normalized_size(const Limb* a, std::size_t n) noexcept {
  while (n > 0 && a[n - 1] == 0) --n;
  return n;
}

template <LimbType Limb>
constexpr bool is_zero(const Limb* a, std::size_t n) noexcept {
  return normalized_size(a, n) == 0;
}

/// Three-way compare of normalized spans: -1, 0, +1.
template <LimbType Limb>
constexpr int compare(const Limb* a, std::size_t na, const Limb* b,
                      std::size_t nb) noexcept {
  if (na != nb) return na < nb ? -1 : 1;
  for (std::size_t i = na; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// Number of significant bits (0 for the value 0). Span need not be normalized.
template <LimbType Limb>
constexpr std::size_t bit_length(const Limb* a, std::size_t n) noexcept {
  n = normalized_size(a, n);
  if (n == 0) return 0;
  return n * limb_bits<Limb> - std::countl_zero(a[n - 1]);
}

/// Index of the lowest set bit; undefined for the value 0.
template <LimbType Limb>
constexpr std::size_t count_trailing_zero_bits(const Limb* a,
                                               std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != 0) return i * limb_bits<Limb> + std::countr_zero(a[i]);
  }
  return n * limb_bits<Limb>;
}

template <LimbType Limb>
constexpr bool get_bit(const Limb* a, std::size_t n, std::size_t bit) noexcept {
  const std::size_t limb = bit / limb_bits<Limb>;
  if (limb >= n) return false;
  return (a[limb] >> (bit % limb_bits<Limb>)) & 1u;
}

/// dst = a + b. dst capacity max(na, nb) + 1; dst may alias a or b.
/// Returns normalized result size.
template <LimbType Limb>
constexpr std::size_t add(Limb* dst, const Limb* a, std::size_t na,
                          const Limb* b, std::size_t nb) noexcept {
  using Wide = typename LimbTraits<Limb>::Wide;
  if (na < nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  Wide carry = 0;
  std::size_t i = 0;
  for (; i < nb; ++i) {
    carry += Wide(a[i]) + b[i];
    dst[i] = Limb(carry);
    carry >>= limb_bits<Limb>;
  }
  for (; i < na; ++i) {
    carry += a[i];
    dst[i] = Limb(carry);
    carry >>= limb_bits<Limb>;
  }
  if (carry != 0) {
    dst[na] = Limb(carry);
    return na + 1;
  }
  return na;
}

/// dst[0, n) += b[0, nb) in place, nb <= n. Writes nothing past dst[n - 1];
/// returns the carry out of it (0 or 1).
template <LimbType Limb>
constexpr Limb add_in_place(Limb* dst, std::size_t n, const Limb* b,
                            std::size_t nb) noexcept {
  using Wide = typename LimbTraits<Limb>::Wide;
  assert(nb <= n);
  Wide carry = 0;
  std::size_t i = 0;
  for (; i < nb; ++i) {
    carry += Wide(dst[i]) + b[i];
    dst[i] = Limb(carry);
    carry >>= limb_bits<Limb>;
  }
  for (; carry != 0 && i < n; ++i) {
    carry += dst[i];
    dst[i] = Limb(carry);
    carry >>= limb_bits<Limb>;
  }
  return Limb(carry);
}

/// dst = a - b; requires a >= b. dst capacity na; dst may alias a or b.
/// Returns normalized result size.
template <LimbType Limb>
constexpr std::size_t sub(Limb* dst, const Limb* a, std::size_t na,
                          const Limb* b, std::size_t nb) noexcept {
  using Wide = typename LimbTraits<Limb>::Wide;
  assert(compare(a, normalized_size(a, na), b, normalized_size(b, nb)) >= 0);
  Wide borrow = 0;
  std::size_t i = 0;
  for (; i < nb; ++i) {
    const Wide diff = Wide(a[i]) - b[i] - borrow;
    dst[i] = Limb(diff);
    borrow = (diff >> limb_bits<Limb>) & 1u;
  }
  for (; i < na; ++i) {
    const Wide diff = Wide(a[i]) - borrow;
    dst[i] = Limb(diff);
    borrow = (diff >> limb_bits<Limb>) & 1u;
  }
  assert(borrow == 0);
  return normalized_size(dst, na);
}

/// dst = a * w (single-word multiplier). dst capacity na + 1; dst may alias a.
/// Returns normalized result size.
template <LimbType Limb>
constexpr std::size_t mul_word(Limb* dst, const Limb* a, std::size_t na,
                               Limb w) noexcept {
  using Wide = typename LimbTraits<Limb>::Wide;
  Wide carry = 0;
  for (std::size_t i = 0; i < na; ++i) {
    carry += Wide(a[i]) * w;
    dst[i] = Limb(carry);
    carry >>= limb_bits<Limb>;
  }
  if (carry != 0) {
    dst[na] = Limb(carry);
    return normalized_size(dst, na + 1);
  }
  return normalized_size(dst, na);
}

/// dst += a * w where dst has (at least) na + 1 limbs of headroom starting at
/// dst; the carry is propagated into dst[na...] as needed. Inner loop of
/// schoolbook multiplication. dst must not alias a.
template <LimbType Limb>
constexpr void addmul_word(Limb* dst, const Limb* a, std::size_t na,
                           Limb w) noexcept {
  using Wide = typename LimbTraits<Limb>::Wide;
  Wide carry = 0;
  for (std::size_t i = 0; i < na; ++i) {
    carry += Wide(a[i]) * w + dst[i];
    dst[i] = Limb(carry);
    carry >>= limb_bits<Limb>;
  }
  for (std::size_t i = na; carry != 0; ++i) {
    carry += dst[i];
    dst[i] = Limb(carry);
    carry >>= limb_bits<Limb>;
  }
}

/// dst = a * b, schoolbook. dst capacity na + nb, zero-initialized by this
/// function. dst must not alias a or b. Returns normalized size.
template <LimbType Limb>
constexpr std::size_t mul_schoolbook(Limb* dst, const Limb* a, std::size_t na,
                                     const Limb* b, std::size_t nb) noexcept {
  std::fill(dst, dst + na + nb, Limb{0});
  if (na == 0 || nb == 0) return 0;
  for (std::size_t j = 0; j < nb; ++j) {
    if (b[j] != 0) addmul_word(dst + j, a, na, b[j]);
  }
  return normalized_size(dst, na + nb);
}

/// dst = a << bits (whole-number left shift). dst capacity
/// na + bits/limb_bits + 1; dst may alias a only when the limb offset is 0.
/// Returns normalized size.
template <LimbType Limb>
constexpr std::size_t shl(Limb* dst, const Limb* a, std::size_t na,
                          std::size_t bits) noexcept {
  const std::size_t limb_shift = bits / limb_bits<Limb>;
  const int bit_shift = static_cast<int>(bits % limb_bits<Limb>);
  if (na == 0) return 0;
  if (bit_shift == 0) {
    for (std::size_t i = na; i-- > 0;) dst[i + limb_shift] = a[i];
    std::fill(dst, dst + limb_shift, Limb{0});
    return normalized_size(dst, na + limb_shift);
  }
  Limb high = a[na - 1] >> (limb_bits<Limb> - bit_shift);
  dst[na + limb_shift] = high;
  for (std::size_t i = na; i-- > 1;) {
    dst[i + limb_shift] =
        Limb(a[i] << bit_shift) | Limb(a[i - 1] >> (limb_bits<Limb> - bit_shift));
  }
  dst[limb_shift] = Limb(a[0] << bit_shift);
  std::fill(dst, dst + limb_shift, Limb{0});
  return normalized_size(dst, na + limb_shift + 1);
}

/// dst = a >> bits. dst capacity na - bits/limb_bits (if positive); dst may
/// alias a. Returns normalized size.
template <LimbType Limb>
constexpr std::size_t shr(Limb* dst, const Limb* a, std::size_t na,
                          std::size_t bits) noexcept {
  const std::size_t limb_shift = bits / limb_bits<Limb>;
  const int bit_shift = static_cast<int>(bits % limb_bits<Limb>);
  if (limb_shift >= na) return 0;
  const std::size_t n = na - limb_shift;
  if (bit_shift == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = a[i + limb_shift];
    return normalized_size(dst, n);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    dst[i] = Limb(a[i + limb_shift] >> bit_shift) |
             Limb(a[i + limb_shift + 1] << (limb_bits<Limb> - bit_shift));
  }
  dst[n - 1] = a[na - 1] >> bit_shift;
  return normalized_size(dst, n);
}

/// In-place `rshift(X)` from the paper: strip all trailing zero bits so the
/// result is odd (or zero). Returns the new size.
template <LimbType Limb>
constexpr std::size_t strip_trailing_zeros(Limb* a, std::size_t n) noexcept {
  n = normalized_size(a, n);
  if (n == 0) return 0;
  const std::size_t tz = count_trailing_zero_bits(a, n);
  if (tz == 0) return n;
  return shr(a, a, n, tz);
}

/// Divide by a single word: a = q * w + r. q capacity na (may alias a).
/// Returns the remainder; q size via normalized_size. Requires w != 0.
template <LimbType Limb>
constexpr Limb divrem_word(Limb* q, const Limb* a, std::size_t na,
                           Limb w) noexcept {
  using Wide = typename LimbTraits<Limb>::Wide;
  assert(w != 0);
  Wide rem = 0;
  for (std::size_t i = na; i-- > 0;) {
    const Wide cur = (rem << limb_bits<Limb>) | a[i];
    q[i] = Limb(cur / w);
    rem = cur % w;
  }
  return Limb(rem);
}

struct DivSizes {
  std::size_t quotient;
  std::size_t remainder;
};

/// Knuth Algorithm D: a = q * b + r with 0 <= r < b.
///   q capacity: na - nb + 1 (when na >= nb; untouched otherwise)
///   r capacity: nb
/// Requires b != 0. No aliasing between q/r and a/b; q and r must not alias.
/// Inputs need not be normalized. Returns normalized sizes of q and r.
template <LimbType Limb>
DivSizes divrem(Limb* q, Limb* r, const Limb* a, std::size_t na, const Limb* b,
                std::size_t nb) {
  using Traits = LimbTraits<Limb>;
  using Wide = typename Traits::Wide;
  constexpr int LB = limb_bits<Limb>;
  constexpr Wide BASE = limb_base<Limb>;

  na = normalized_size(a, na);
  nb = normalized_size(b, nb);
  assert(nb > 0 && "division by zero");

  if (compare(a, na, b, nb) < 0) {  // q = 0, r = a
    std::copy(a, a + na, r);
    return {0, na};
  }
  if (nb == 1) {
    const Limb rem = divrem_word(q, a, na, b[0]);
    r[0] = rem;
    return {normalized_size(q, na), rem != 0 ? std::size_t{1} : std::size_t{0}};
  }

  // Normalize: shift so the divisor's top limb has its high bit set.
  const int s = std::countl_zero(b[nb - 1]);
  std::vector<Limb> vn(nb + 1);  // +1: shl writes a (zero) spill limb
  std::vector<Limb> un(na + 2);
  shl(vn.data(), b, nb, static_cast<std::size_t>(s));
  un[na] = 0;
  const std::size_t un_size = shl(un.data(), a, na, static_cast<std::size_t>(s));
  (void)un_size;  // un keeps na + 1 slots regardless of normalization

  const std::size_t m = na - nb;
  for (std::size_t jj = m + 1; jj-- > 0;) {
    const std::size_t j = jj;
    // Estimate q̂ from the top two limbs of the running remainder.
    const Wide num = (Wide(un[j + nb]) << LB) | un[j + nb - 1];
    Wide qhat = num / vn[nb - 1];
    Wide rhat = num % vn[nb - 1];
    while (qhat >= BASE ||
           qhat * vn[nb - 2] > ((rhat << LB) | un[j + nb - 2])) {
      --qhat;
      rhat += vn[nb - 1];
      if (rhat >= BASE) break;
    }
    // Multiply-subtract: un[j .. j+nb] -= q̂ * vn. After the correction
    // q̂ < BASE, so each product is one limb by one limb, and one carry
    // limb takes the borrow too: q̂·v_i + carry <= BASE² − BASE, so a high
    // limb of BASE − 1 comes with a zero low limb and no borrow.
    const Limb qd = Limb(qhat);
    Limb carry = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      const Wide p = Wide(qd) * vn[i] + carry;
      const Limb lo = Limb(p);
      const Limb u = un[i + j];
      un[i + j] = Limb(u - lo);
      carry = Limb(Limb(p >> LB) + Limb(u < lo));
    }
    const Limb top = un[j + nb];
    un[j + nb] = Limb(top - carry);
    q[j] = qd;
    if (top < carry) {  // q̂ was one too large: add the divisor back
      --q[j];
      Wide k = 0;
      for (std::size_t i = 0; i < nb; ++i) {
        k += Wide(un[i + j]) + vn[i];
        un[i + j] = Limb(k);
        k >>= LB;
      }
      un[j + nb] = Limb(Wide(un[j + nb]) + k);
    }
  }

  // Denormalize the remainder.
  const std::size_t rsize = shr(un.data(), un.data(), nb, static_cast<std::size_t>(s));
  std::copy(un.data(), un.data() + rsize, r);
  return {normalized_size(q, m + 1), rsize};
}

}  // namespace bulkgcd::mp
