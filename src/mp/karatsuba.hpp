// Karatsuba multiplication. The batch-GCD product tree multiplies numbers of
// hundreds of thousands of bits where schoolbook's O(n^2) dominates the whole
// pipeline; Karatsuba brings the tree to O(n^1.585) per level.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "mp/span_ops.hpp"

namespace bulkgcd::mp {

/// Below this many limbs (smaller operand) schoolbook wins. On 64-bit
/// limbs, the batch tree's width, bench_microkernels has one Karatsuba
/// split ahead at 24 and 32 limbs; on 32-bit limbs schoolbook is within
/// noise at 24 and behind from 32 on, so one value serves every width
/// (docs/BATCHGCD.md).
inline constexpr std::size_t kKaratsubaThreshold = 24;

/// dst[0, na + nb) = a * b (not normalized). dst must not alias a or b.
/// The two half products are written straight into dst, so each split
/// allocates one scratch vector, for the middle product and its operands.
template <LimbType Limb>
void mul_karatsuba_into(Limb* dst, const Limb* a, std::size_t na,
                        const Limb* b, std::size_t nb) {
  if (std::min(na, nb) < kKaratsubaThreshold) {
    mul_schoolbook(dst, a, na, b, nb);
    return;
  }

  const std::size_t h = (std::max(na, nb) + 1) / 2;
  // a = a1 * B^h + a0,  b = b1 * B^h + b0
  const std::size_t na0 = std::min(na, h), na1 = na - na0;
  const std::size_t nb0 = std::min(nb, h), nb1 = nb - nb0;
  const std::size_t n = na + nb;

  // z0 = a0 * b0 at dst[0, na0 + nb0), z2 = a1 * b1 at dst[2h, n). When b
  // (or a) fits one half, z2 is zero and z0 is all of the low part.
  const bool has_z2 = na1 > 0 && nb1 > 0;  // then na0 = nb0 = h
  mul_karatsuba_into(dst, a, na0, b, nb0);
  if (has_z2) {
    mul_karatsuba_into(dst + 2 * h, a + na0, na1, b + nb0, nb1);
  } else {
    std::fill(dst + na0 + nb0, dst + n, Limb{0});
  }

  // z1 = (a0 + a1)(b0 + b1) − z0 − z2, laid out as [a0+a1 | b0+b1 | z1].
  const std::size_t ca = std::max(na0, na1) + 1, cb = std::max(nb0, nb1) + 1;
  std::vector<Limb> scratch(2 * (ca + cb));
  Limb* const sa = scratch.data();
  Limb* const sb = sa + ca;
  Limb* const z1 = sb + cb;
  const std::size_t nsa = add(sa, a, na0, a + na0, na1);
  const std::size_t nsb = add(sb, b, nb0, b + nb0, nb1);
  mul_karatsuba_into(z1, sa, nsa, sb, nsb);
  std::size_t nz1 = sub(z1, z1, nsa + nsb, dst, na0 + nb0);
  if (has_z2) nz1 = sub(z1, z1, nz1, dst + 2 * h, n - 2 * h);

  // dst += z1 << h limbs, in place: the partial sum is at most the product,
  // so z1 fits the tail and no carry leaves it.
  assert(h + nz1 <= n);
  const Limb carry = add_in_place(dst + h, n - h, z1, nz1);
  (void)carry;
  assert(carry == 0 && "partial sum exceeds the product");
}

/// Returns a * b as a normalized limb vector.
template <LimbType Limb>
std::vector<Limb> mul_karatsuba(const Limb* a, std::size_t na, const Limb* b,
                                std::size_t nb) {
  na = normalized_size(a, na);
  nb = normalized_size(b, nb);
  if (na == 0 || nb == 0) return {};
  std::vector<Limb> out(na + nb);
  mul_karatsuba_into(out.data(), a, na, b, nb);
  out.resize(normalized_size(out.data(), out.size()));
  return out;
}

}  // namespace bulkgcd::mp
