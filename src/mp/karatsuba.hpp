// Karatsuba multiplication. The batch-GCD product tree multiplies numbers of
// hundreds of thousands of bits where schoolbook's O(n^2) dominates the whole
// pipeline; Karatsuba brings the tree to O(n^1.585) per level.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "mp/span_ops.hpp"

namespace bulkgcd::mp {

/// Below this many limbs (smaller operand) schoolbook wins. On 64-bit
/// limbs, the batch tree's width, bench_microkernels has one Karatsuba
/// split ahead at 24 and 32 limbs (docs/BATCHGCD.md).
inline constexpr std::size_t kKaratsubaThreshold = 24;

/// Returns a * b as a normalized limb vector.
template <LimbType Limb>
std::vector<Limb> mul_karatsuba(const Limb* a, std::size_t na, const Limb* b,
                                std::size_t nb) {
  na = normalized_size(a, na);
  nb = normalized_size(b, nb);
  if (na == 0 || nb == 0) return {};
  if (std::min(na, nb) < kKaratsubaThreshold) {
    std::vector<Limb> out(na + nb);
    out.resize(mul_schoolbook(out.data(), a, na, b, nb));
    return out;
  }

  const std::size_t h = (std::max(na, nb) + 1) / 2;
  // a = a1 * B^h + a0,  b = b1 * B^h + b0
  const std::size_t na0 = std::min(na, h), na1 = na - na0;
  const std::size_t nb0 = std::min(nb, h), nb1 = nb - nb0;

  std::vector<Limb> z0 = mul_karatsuba(a, na0, b, nb0);
  std::vector<Limb> z2 = mul_karatsuba(a + na0, na1, b + nb0, nb1);

  // (a0 + a1) and (b0 + b1)
  std::vector<Limb> sa(std::max(na0, na1) + 1);
  sa.resize(std::min(sa.size(), add(sa.data(), a, na0, a + na0, na1)));
  std::vector<Limb> sb(std::max(nb0, nb1) + 1);
  sb.resize(std::min(sb.size(), add(sb.data(), b, nb0, b + nb0, nb1)));

  std::vector<Limb> z1 = mul_karatsuba(sa.data(), sa.size(), sb.data(), sb.size());
  // z1 -= z0 + z2 (sub never grows the span; min() keeps that bound visible
  // to the compiler's object-size analysis)
  z1.resize(std::min(z1.size(), sub(z1.data(), z1.data(), z1.size(), z0.data(), z0.size())));
  z1.resize(std::min(z1.size(), sub(z1.data(), z1.data(), z1.size(), z2.data(), z2.size())));

  // result = z2 << 2h limbs  +  z1 << h limbs  +  z0
  std::vector<Limb> out(na + nb, Limb{0});
  std::copy_n(z0.begin(), std::min(z0.size(), out.size()), out.begin());
  // add z1 at offset h, z2 at offset 2h, in place: every partial sum is at
  // most the product, so z fits the tail and no carry leaves it
  const auto add_at = [&out](std::size_t offset, const std::vector<Limb>& z) {
    if (z.empty()) return;
    assert(offset + z.size() <= out.size());
    const Limb carry = add_in_place(out.data() + offset, out.size() - offset,
                                    z.data(), z.size());
    (void)carry;
    assert(carry == 0 && "partial sum exceeds the product");
  };
  add_at(h, z1);
  add_at(2 * h, z2);
  out.resize(normalized_size(out.data(), out.size()));
  return out;
}

}  // namespace bulkgcd::mp
